package topo

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/rtpc"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// Network is a built internetwork, ready to Run exactly once. All
// machinery is constructed serially by Build — shard schedulers diverge
// only once Run starts stepping them — so the (scheduler, seq) event
// order on every shard is fixed before any worker exists.
type Network struct {
	spec    Spec
	window  sim.Time
	shards  []*shard
	links   []*link
	streams []*stream
	bursts  []*burst
	// routes is the all-pairs next-hop table compiled once during
	// validation; via[r][d] is the first hop's bridge station address on
	// ring r for frames bound to ring d.
	routes *routeTable
	via    [][]ring.Addr
	// adj[i] lists shard i's incident links as (peer, latency) pairs —
	// the per-shard lookahead recurrence the engine iterates (engine.go).
	adj [][]ringEdge
	// engStats is filled by Run and copied into Results by collect.
	engStats EngineStats
	ran      bool
}

// ringEdge is one incident link seen from a shard: the ring on the far
// end and the store-and-forward latency toward (and from) it.
type ringEdge struct {
	peer int
	lat  sim.Time
}

// shard is one ring's slice of the simulation: its own scheduler, the
// ring with population and background load, the per-ring admission
// controller, and the inbound cross-ring queues drained at window
// boundaries. Exactly one worker goroutine ever touches a shard.
//
//ctmsvet:shardowned
type shard struct {
	*session.Segment
	idx     int
	in      []*inbox   // inbound link directions terminating on this ring
	scratch []crossMsg // drain merge buffer, reused across windows
	// arrivals is the free list of pooled link-arrival events (one per
	// cross-ring frame in flight into this shard), so steady-state
	// draining allocates neither closures nor scheduler payloads.
	arrivals []*arrival
}

// link is one bridge: a Half on each ring plus the two directed inboxes.
type link struct {
	spec         LinkSpec
	halfA, halfB *router.Half
	ab, ba       *inbox // ab carries A→B traffic (drained by B's shard)
}

// stream is one CTMSP stream's live machinery (nil when rejected) plus
// its receive-side latency accounting (owned by the destination shard
// during the run).
type stream struct {
	*session.Stream
	spec StreamSpec
	// dec is the admitted reservation, or the refusing ring's own
	// decision; Results prefixes its reason with refusedBy.
	dec  session.Decision
	path []int // rings along the route, source first
	// refusedBy is the ring whose admission refused the stream (rejected
	// streams only).
	refusedBy int
	// End-to-end delivery delay versus the nominal capture schedule
	// (packet k is captured at (k+1)×Interval on the device's clock), so
	// no cross-shard send timestamp is needed.
	latSum sim.Time
	latMax sim.Time
	latN   uint64
}

// burst is one BurstSpec's source-side accounting.
type burst struct {
	spec      BurstSpec
	attempted uint64
	queued    uint64
	dropped   uint64 // source mbuf pool exhaustion
}

// Build validates the spec and constructs the whole internetwork:
// shards, bridges, routing tables, admission, streams, bursts and
// insertions. The returned Network runs once, at any worker count, with
// bit-identical results.
func Build(spec Spec) (*Network, error) {
	rt, err := spec.validateCompiled()
	if err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	if spec.Population != nil {
		// Full-slice expression: the census must not scribble on the
		// caller's Streams backing array.
		spec.Streams = append(spec.Streams[:len(spec.Streams):len(spec.Streams)],
			expandPopulation(spec, rt)...)
	}

	n := &Network{spec: spec, routes: rt}
	n.window = spec.Duration
	for _, l := range spec.Links {
		if l.Latency < n.window {
			n.window = l.Latency
		}
	}
	n.adj = make([][]ringEdge, spec.Rings)
	for _, l := range spec.Links {
		n.adj[l.A] = append(n.adj[l.A], ringEdge{peer: l.B, lat: l.Latency})
		n.adj[l.B] = append(n.adj[l.B], ringEdge{peer: l.A, lat: l.Latency})
	}

	n.buildShards()
	n.buildLinks()
	n.buildRoutes()
	for i, st := range spec.Streams {
		if err := n.buildStream(i, st); err != nil {
			return nil, err
		}
	}
	for i, b := range spec.Bursts {
		n.buildBurst(i, b)
	}
	for _, ins := range spec.Insertions {
		s := n.shards[ins.Ring]
		purges := ins.Purges
		if purges == 0 {
			purges = session.DefaultInsertionPurges
		}
		rg := s.Ring
		s.Sched.At(ins.At, "topo.insertion", func() { rg.Insertion(purges) })
	}
	return n, nil
}

// buildShards gives each ring its own segment — scheduler, population,
// background load and admission controller — built exactly as the
// session layer builds its single ring.
func (n *Network) buildShards() {
	spec := n.spec
	for i := 0; i < spec.Rings; i++ {
		seg := session.NewSegment(session.MixSeed(spec.Seed, saltRing+uint64(i)),
			spec.RingBitRate, spec.UtilizationCap, spec.BackgroundUtil)
		n.shards = append(n.shards, &shard{Segment: seg, idx: i})
	}
}

// buildLinks attaches a split-bridge Half per link endpoint and joins
// the pair with one inbox per direction. The Forward callback stamps the
// arrival time with the sender shard's clock — it always runs during
// that shard's event processing — plus the link's store-and-forward
// latency, which is what the engine's lookahead window is built on.
func (n *Network) buildLinks() {
	spec := n.spec
	dir := 0
	for li, ls := range spec.Links {
		a, b := n.shards[ls.A], n.shards[ls.B]
		half := func(sh *shard, r int, seed int64) *router.Half {
			name := fmt.Sprintf("br%d-r%d", li, r)
			k := kernel.New(rtpc.NewMachine(sh.Sched, name, rtpc.DefaultCostModel(), seed))
			return router.NewHalf(k, name, sh.Ring, r, spec.Rings)
		}
		halfA := half(a, ls.A, session.MixSeed(spec.Seed, saltHalf+uint64(li)*2))
		halfB := half(b, ls.B, session.MixSeed(spec.Seed, saltHalf+uint64(li)*2+1))
		lk := &link{spec: ls, halfA: halfA, halfB: halfB}
		lk.ab = newInbox(dir, halfB)
		dir++
		lk.ba = newInbox(dir, halfA)
		dir++
		wire := func(from *shard, box *inbox, lat sim.Time) func(router.Forwarded) {
			sched := from.Sched
			return func(f router.Forwarded) { box.put(sched.Now()+lat, f) }
		}
		halfA.Forward = wire(a, lk.ab, ls.Latency)
		halfB.Forward = wire(b, lk.ba, ls.Latency)
		b.in = append(b.in, lk.ab)
		a.in = append(a.in, lk.ba)
		n.links = append(n.links, lk)
	}
}

// buildRoutes projects the compiled next-hop table onto the built
// bridges: via[r][d] is where a frame on ring r bound for ring d must be
// MAC-addressed — the first-hop bridge's station, looked up O(1) in the
// table Validate already compiled.
func (n *Network) buildRoutes() {
	spec := n.spec
	n.via = make([][]ring.Addr, spec.Rings)
	for r := range n.via {
		n.via[r] = make([]ring.Addr, spec.Rings)
		for d := 0; d < spec.Rings; d++ {
			li := n.routes.nextLink(r, d)
			if li < 0 {
				continue
			}
			if spec.Links[li].A == r {
				n.via[r][d] = n.links[li].halfA.Station().Addr()
			} else {
				n.via[r][d] = n.links[li].halfB.Station().Addr()
			}
		}
	}
	for li, ls := range spec.Links {
		for d := 0; d < spec.Rings; d++ {
			if d != ls.A && n.via[ls.A][d] != 0 {
				n.links[li].halfA.SetRoute(d, n.via[ls.A][d])
			}
			if d != ls.B && n.via[ls.B][d] != 0 {
				n.links[li].halfB.SetRoute(d, n.via[ls.B][d])
			}
		}
	}
}

// pathRings walks the compiled table from src to dst, source included.
func (n *Network) pathRings(src, dst int) []int {
	path := n.routes.path(src, dst)
	sim.Checkf(path != nil, "topo: no path %d→%d past validation", src, dst)
	return path
}

// buildStream admits one stream on every ring of its path — rollback on
// the first refusal, with the refusing hop named in the decision — and,
// when admitted, attaches the transmit machinery to the source shard and
// the receive machinery to the destination shard. Cross-ring packets are
// MAC-addressed to the first-hop bridge and carry their final (ring,
// station) in the Outgoing's routed fields; the CTMSP header rides the
// mbuf tag end to end, so the receive path is the session layer's
// unchanged.
func (n *Network) buildStream(i int, spec StreamSpec) error {
	offered := spec.OfferedBits()
	path := n.pathRings(spec.SrcRing, spec.DstRing)
	st := &stream{spec: spec, path: path}
	n.streams = append(n.streams, st)

	st.dec = session.Decision{Admitted: true, ReservedBits: offered}
	var granted []int
	for _, r := range path {
		d := n.shards[r].Ctrl.Admit(i, spec.Class, offered)
		if !d.Admitted {
			st.dec, st.refusedBy = d, r
			for _, g := range granted {
				n.shards[g].Ctrl.Release(i)
			}
			return nil
		}
		granted = append(granted, r)
	}
	for _, r := range path {
		n.shards[r].Ring.ReserveBits(offered)
	}

	tx, rx := spec.Hosts(n.shards[spec.SrcRing].Ring, n.shards[spec.DstRing].Ring,
		session.MixSeed(n.spec.Seed, saltStream+uint64(i)*2), session.MixSeed(n.spec.Seed, saltStream+uint64(i)*2+1))
	finalDst := rx.Driver.Station().Addr()
	dialTo := finalDst
	var patch func(*tradapter.Outgoing)
	if spec.SrcRing != spec.DstRing {
		dialTo = n.via[spec.SrcRing][spec.DstRing]
		dstRing := spec.DstRing
		patch = func(out *tradapter.Outgoing) {
			out.RoutedDst = finalDst
			out.RoutedRing = dstRing + 1
		}
	}
	s, err := session.NewStream(i, spec.StreamSpec, tx, rx, dialTo, n.spec.PlayoutPrebuffer, 0, patch,
		func(lat sim.Time) {
			if lat > 0 {
				st.latSum += lat
				st.latN++
				st.latMax = max(st.latMax, lat)
			}
		})
	if err != nil {
		return fmt.Errorf("topo: stream %d (%s): %w", i, spec.Name, err)
	}
	st.Stream = s
	s.Dev.Start()
	return nil
}

// buildBurst schedules a frame burst from a dedicated source host toward
// a handler-less sink host (the driver releases unclaimed frames), using
// the same routed addressing as streams. Bursts bigger than the source
// mbuf pool or the bridge egress queue exercise the drop paths.
func (n *Network) buildBurst(bi int, bs BurstSpec) {
	src := n.shards[bs.SrcRing]
	host := func(s *shard, role string, salt uint64) session.Host {
		return session.NewHost(s.Ring, fmt.Sprintf("burst%d-%s", bi, role),
			session.MixSeed(n.spec.Seed, saltBurst+salt), tradapter.DefaultConfig())
	}
	srcHost := host(src, "src", uint64(bi)*2)
	sinkAddr := host(n.shards[bs.DstRing], "sink", uint64(bi)*2+1).Driver.Station().Addr()
	crossRing := bs.SrcRing != bs.DstRing
	via := sinkAddr
	if crossRing {
		via = n.via[bs.SrcRing][bs.DstRing]
	}

	b := &burst{spec: bs}
	n.bursts = append(n.bursts, b)
	for j := 0; j < bs.Count; j++ {
		at := bs.At + sim.Time(j)*bs.Gap
		if at > n.spec.Duration {
			break
		}
		src.Sched.At(at, "topo.burst", func() {
			b.attempted++
			ch := srcHost.Kernel.Pool.AllocNoWait(bs.PacketBytes)
			if ch == nil {
				b.dropped++
				return
			}
			out := &tradapter.Outgoing{
				Chain: ch,
				Size:  bs.PacketBytes,
				Class: tradapter.ClassIP,
				Dst:   via,
			}
			if crossRing {
				out.RoutedDst = sinkAddr
				out.RoutedRing = bs.DstRing + 1
			}
			pool := srcHost.Kernel.Pool
			out.Done = func(ring.DeliveryStatus) { pool.Free(ch) }
			b.queued++
			srcHost.Driver.Output(out)
		})
	}
}

// Shards reports the number of shards (rings).
func (n *Network) Shards() int { return len(n.shards) }

// Window reports the engine's lookahead window: the minimum link
// latency, or the full duration for a linkless spec.
func (n *Network) Window() sim.Time { return n.window }

// Scheduler exposes shard i's scheduler — for tests that inject chaos
// (window-edge events, cancels) before Run. Touching it after Run starts
// would race with the owning worker.
func (n *Network) Scheduler(i int) *sim.Scheduler { return n.shards[i].Sched }

// Ring exposes shard i's ring for the same pre-Run purpose.
func (n *Network) Ring(i int) *ring.Ring { return n.shards[i].Ring }

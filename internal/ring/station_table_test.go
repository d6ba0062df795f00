package ring

import (
	"testing"

	"repro/internal/sim"
)

// TestStationLookup pins the station table's contract: Attach hands out
// dense addresses 1..n, and Station returns nil for address 0, for
// Broadcast and for anything past the last station.
func TestStationLookup(t *testing.T) {
	_, r := newTestRing(t)
	if r.Station(1) != nil {
		t.Fatal("an empty ring has no station 1")
	}
	const n = 5
	var attached []*Station
	for i := 0; i < n; i++ {
		attached = append(attached, r.Attach("st"))
	}
	for i, st := range attached {
		if st.Addr() != Addr(i+1) {
			t.Fatalf("station %d got address %d, want %d", i, st.Addr(), i+1)
		}
		if got := r.Station(st.Addr()); got != st {
			t.Fatalf("Station(%d) = %p, want the station attached under it (%p)", st.Addr(), got, st)
		}
	}
	for _, a := range []Addr{0, n + 1, Broadcast} {
		if st := r.Station(a); st != nil {
			t.Fatalf("Station(%#x) = %s, want nil", a, st.Name())
		}
	}
}

// TestBroadcastSkipsSenderAndHonoursFlags sends one data and one MAC
// broadcast from a station in the middle of the ring: the sender never
// hears its own frame (even when promiscuous), a removed station hears
// nothing, and only promiscuous stations see the MAC frame.
func TestBroadcastSkipsSenderAndHonoursFlags(t *testing.T) {
	sched, r := newTestRing(t)
	plain := r.Attach("plain")
	tx := r.Attach("tx")
	promisc := r.Attach("promisc")
	removed := r.Attach("removed")
	tx.SetPromiscuousMAC(true)
	promisc.SetPromiscuousMAC(true)
	removed.SetPromiscuousMAC(true)
	removed.Remove()

	got := map[string][]FrameKind{}
	for _, st := range []*Station{plain, tx, promisc, removed} {
		name := st.Name()
		st.OnReceive(func(f *Frame, _ sim.Time) { got[name] = append(got[name], f.Kind) })
	}
	var data, mac DeliveryStatus
	tx.Transmit(NewDataFrame(tx.Addr(), Broadcast, 0, 100, nil, nil), func(s DeliveryStatus) { data = s })
	tx.Transmit(NewMACFrame(tx.Addr(), MACActiveMonitorPresent), func(s DeliveryStatus) { mac = s })
	sched.Run()

	if len(got["tx"]) != 0 {
		t.Fatalf("sender heard its own broadcasts: %v", got["tx"])
	}
	if len(got["removed"]) != 0 {
		t.Fatalf("removed station heard broadcasts: %v", got["removed"])
	}
	if k := got["plain"]; len(k) != 1 || k[0] != LLC {
		t.Fatalf("plain station heard %v, want the data broadcast only", k)
	}
	if k := got["promisc"]; len(k) != 2 {
		t.Fatalf("promiscuous station heard %v, want the data and the MAC broadcast", k)
	}
	if !data.Delivered || !mac.Delivered {
		t.Fatalf("broadcast status: data %+v, MAC %+v; want both delivered", data, mac)
	}
}

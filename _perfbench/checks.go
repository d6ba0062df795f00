package main

import "fmt"

// reference is what every repetition of one input must reproduce: the
// serial mesh run (workers=1, made outside the timed region) and the
// first repetition's simulated outputs.
type reference struct {
	fingerprint     string
	rounds, skipped uint64
	digest          string
}

// checkOutcome runs every output check on one repetition and returns
// the failures, empty when the repetition is correct.
func checkOutcome(o *outcome, ref *reference) []string {
	var fails []string
	if o.fingerprint != ref.fingerprint {
		fails = append(fails, "mesh fingerprint differs from the serial run of the same spec")
	}
	if o.rounds != ref.rounds || o.skipped != ref.skipped {
		fails = append(fails, fmt.Sprintf("engine rounds/skipped %d/%d, serial run %d/%d",
			o.rounds, o.skipped, ref.rounds, ref.skipped))
	}
	if ref.digest != "" && o.digest() != ref.digest {
		fails = append(fails, "simulated outputs differ between repetitions of one input")
	}
	if o.compiled >= 0 && o.compiled != o.streams {
		fails = append(fails, fmt.Sprintf("run reports %d population streams, the spec compiles to %d arrivals",
			o.streams, o.compiled))
	}
	if o.frames == 0 {
		fails = append(fails, "no frame delivered")
	}
	fails = append(fails, checkConservation(o.counts, o.linkInFlight)...)
	return fails
}

// checkConservation checks per-stream frame accounting. Every sent frame
// is delivered, lost (a sequence gap the receiver saw) or still in flight
// when the run ends. Results count the in-flight frames only on mesh
// links, not those queued in a ring or a bridge, so the exact identity
// cannot be closed from outside (ledger.unaccounted_share reports the gap); the
// check asserts what the public outputs prove:
//   - no stream delivers or loses more frames than it sent;
//   - the frames the links report in flight are among the unaccounted ones.
func checkConservation(counts []streamCount, linkInFlight int) []string {
	var fails []string
	var unaccounted uint64
	for _, c := range counts {
		if c.delivered+c.lost > c.sent {
			fails = append(fails, fmt.Sprintf("stream %s: delivered %d + lost %d > sent %d",
				c.name, c.delivered, c.lost, c.sent))
			continue
		}
		unaccounted += c.sent - c.delivered - c.lost
	}
	if uint64(linkInFlight) > unaccounted {
		fails = append(fails, fmt.Sprintf("links hold %d frames in flight but only %d are unaccounted",
			linkInFlight, unaccounted))
	}
	return fails
}

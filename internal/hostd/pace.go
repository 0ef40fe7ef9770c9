package hostd

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// paceStream adapts a timed stream to the packetizer's paced-source
// contract, anchoring the stream's arrival offsets at the virtual time the
// channel starts serving the task. The returned stream yields only tuples
// whose arrival time has passed (and reports !ok otherwise); stall reports
// when the next arrival is due, or false at EOF. Together they make the
// send loop consume the trace on the sim clock: the packetizer packs
// whatever has arrived, flushes partial packets on a lull, and the channel
// waits until the next arrival instead of streaming back-to-back.
func paceStream(s *sim.Simulation, ts core.TimedStream) (core.Stream, func() (sim.Time, bool)) {
	start := s.Now()
	var pending core.TimedKV
	has, eof := false, false
	fetch := func() {
		if !has && !eof {
			pending, has = ts()
			eof = !has
		}
	}
	stream := func() (core.KV, bool) {
		fetch()
		if has && start.Add(pending.At) <= s.Now() {
			has = false
			return pending.KV, true
		}
		return core.KV{}, false
	}
	stall := func() (sim.Time, bool) {
		fetch()
		if !has {
			return 0, false
		}
		return start.Add(pending.At), true
	}
	return stream, stall
}

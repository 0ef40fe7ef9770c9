// Conservative parallel sharded execution (ROADMAP item 1).
//
// A ShardGroup partitions one simulated system into K shard lanes plus a
// root lane. Each lane is a full Simulation — its own clock, event store,
// heap, and rng — owning a disjoint slice of the model state (one rack or
// leaf block of the fabric, certified by the shardsafety analyzer). The
// group executes the union of the lanes under a conservative barrier
// protocol:
//
//   - Lookahead. Every cross-lane interaction travels over a declared cut
//     edge (a netsim link whose delivery is a mailbox) with a minimum
//     model delay L = propagation + switch latency. An event executing at
//     time t can therefore affect another lane no earlier than t+L.
//
//   - Windows. The group repeatedly computes T = the earliest pending
//     event across all lanes and executes the window [T, T+L): the busy
//     lanes process their own events inside the window concurrently, each
//     in exactly the per-lane order the serial kernel would use. The
//     coordinating goroutine (the one that called Run) runs the
//     lowest-index busy lane itself; every other lane has a worker
//     goroutine for the duration of the run (see Handoff below). By the
//     lookahead argument no event executed in the window can schedule
//     into another lane inside the window, so lanes are independent and
//     the merge of their executions is equivalent to a legal serial
//     schedule.
//
//   - Mailboxes. Cross-lane schedules produced during a window (cut-link
//     frame deliveries, wakes of the root driver) are buffered in the
//     target lane's inbox and drained at the barrier, sorted by
//     (time, source lane, source sequence) — a total order independent of
//     goroutine interleaving, which is what makes parallel runs
//     bit-reproducible.
//
//   - Serial windows. The root lane hosts drivers and orchestrators
//     (task submission, chaos injection, result collection) whose calls
//     reach into many shards synchronously with zero lookahead. Any
//     window containing a root event is executed serially on the
//     coordinating goroutine — a K-way merge over the lanes in (time,
//     lane, seq) order with all lane clocks slaved to the merge — which
//     reproduces the serial kernel's semantics exactly for control-plane
//     phases.
//     Steady-state streaming has an empty root lane and runs parallel.
//
//   - Wake fences. When a shard event wakes a root-lane process (a task
//     completing fires the driver's signal), the firing lane stops its
//     window at that point. The driver then runs in the next (serial)
//     window and observes the firing shard exactly as the serial kernel
//     would have: nothing past the wake has executed there.
//
//   - Control rendezvous. Synchronous cross-shard control RPCs issued
//     from shard context (a fat-tree daemon registering flows at every
//     spine during failover recovery) call EnterControlFrom: the calling
//     lane suspends its window, the barrier completes, and the RPC runs
//     exclusively — deterministically ordered by lane — before the next
//     window starts. Every section runs in serial phase. That includes a
//     section entered from the lane the coordinator runs: it waits for the
//     worker lanes to finish or suspend and then runs as the first grant
//     (it is the lowest busy lane), so its cross-lane schedules are direct
//     exactly as in any other grant.
//
//   - Handoff. A window is a few µs of work, so releasing a worker and
//     joining it must not cost an OS thread wakeup each time. A worker
//     waits on its lane's atomic state word, the coordinator on an atomic
//     countdown of unfinished workers; each waiter polls for a bounded
//     number of iterations and then parks on a channel. Polling is enabled
//     only while every lane goroutine can hold its own P (lanes ≤
//     min(GOMAXPROCS, NumCPU)); otherwise waiters park at once. HostStats
//     counts the handoffs that polling satisfied and the ones that parked.
//
// Barrier versus null messages: with K ≤ NumCPU lanes inside one address
// space, a central min-reduction costs microseconds per window while a
// null-message protocol is O(K²) channel traffic per lookahead interval
// and — more important here — has no natural point at which the
// zero-lookahead root lane can interleave. The barrier's global windows
// double as the serial fallback seam, which is what keeps parallel runs
// byte-identical to the serial golden. See DESIGN.md "Parallel DES".
package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// laneRoot is the lane index of the root simulation.
const laneRoot = -1

// inject is one buffered cross-lane schedule. The key (at, srcLane,
// srcSeq) totally orders a window's injects independently of goroutine
// interleaving.
type inject struct {
	at      Time
	srcLane int32
	srcSeq  uint64
	fn      func()
	afn     func(any)
	arg     any
}

// ShardGroupStats counts scheduler activity, for experiment tables and
// the -shards diagnostic output.
type ShardGroupStats struct {
	Windows         int64 // total conservative windows executed
	ParallelWindows int64 // windows fanned out to lane workers
	InlineWindows   int64 // single-busy-lane windows run on the caller
	SerialWindows   int64 // windows containing root-lane events (K-way merge)
	Injects         int64 // cross-lane mailbox deliveries drained
	ControlRendezvs int64 // EnterControlFrom rendezvous served
	WakeFences      int64 // windows cut short by a cross-lane wake
}

// ShardHostStats counts how the host threads behind a group handed off
// parallel windows: a worker waiting for its release, or the coordinator
// waiting for the workers to finish (or for a granted control section).
// Unlike ShardGroupStats these depend on the host's cores and load, not
// on the simulation, so they are kept apart from the simulation outputs.
type ShardHostStats struct {
	Spun   int64 // handoffs that found their signal without parking
	Parked int64 // handoffs that parked on a channel (an OS-level wake)
}

// Handoff states (handoff.state).
const (
	waitIdle   int32 = iota // no signal pending
	waitGo                  // run: a window, a grant, or the join
	waitExit                // the run is over: the worker returns
	waitParked              // the waiter is blocked on its wake channel
)

// spinPolls bounds a waiter's busy-poll before it parks: about 180 µs on a
// 2-vCPU Xeon (0.7 ns per poll), ten or more windows of work. Steady
// parallel streaming, and the runs of inline windows inside it, then hand
// off without parking, while a long serial stretch costs each idle lane
// one bounded poll before it parks.
const spinPolls = 1 << 18

// handoff is one single-consumer wait point: a lane's worker waiting
// for its release or grant, or the coordinator waiting for the join. At
// most one signal is outstanding at any time.
type handoff struct {
	state atomic.Int32
	wake  chan struct{} // capacity 1: the token for a parked waiter
	// spun and parked are written only by the waiting goroutine (or a
	// process it handed control to) and read after the run.
	spun, parked int64
	_            [32]byte // one 64-byte cache line per handoff
}

func newHandoff() *handoff { return &handoff{wake: make(chan struct{}, 1)} }

// signal posts v (waitGo or waitExit), waking the waiter if it parked.
func (w *handoff) signal(v int32) {
	if w.state.Swap(v) == waitParked {
		w.wake <- struct{}{}
	}
}

// await returns the next posted signal, polling first when spin is set.
func (w *handoff) await(spin bool) int32 {
	if spin {
		for i := 0; i < spinPolls; i++ {
			if w.state.Load() != waitIdle {
				break
			}
		}
	}
	parked := false
	if w.state.CompareAndSwap(waitIdle, waitParked) {
		<-w.wake
		parked = true
	}
	v := w.state.Swap(waitIdle)
	if v == waitGo {
		if parked {
			w.parked++
		} else {
			w.spun++
		}
	}
	return v
}

// ShardGroup couples one root Simulation with K shard lanes under the
// conservative barrier protocol above. Construct with NewShardGroup,
// attach model state to the lanes, then drive the whole group through the
// root's Run exactly as in the serial case.
type ShardGroup struct {
	root  *Simulation
	lanes []*Simulation
	look  Time

	// parallel is true while lane workers may be executing a window. It is
	// written by the coordinating goroutine strictly before worker release
	// and after worker join (the atomic handoffs order the accesses).
	parallel bool

	// own is the lane the coordinating goroutine runs in the current
	// parallel window (its lowest busy lane); nil outside parallel windows.
	own *Simulation

	// workers[i] is lane i's release point (lane 0's stays unused: as the
	// lowest lane it is always the coordinator's) and join is the
	// coordinator's. unfinished counts the released workers that have not
	// yet finished or suspended; the one that brings it to zero signals
	// join. spin enables polling for the current run (see Handoff), and
	// exited waits for the run's workers to return.
	workers    []*handoff
	join       *handoff
	unfinished atomic.Int32
	spin       bool
	exited     sync.WaitGroup

	// ctrlReqs holds worker lanes suspended in EnterControlFrom, granted
	// in lane order after the window joins. ctrlMu guards concurrent
	// registration from several suspending lanes in one window.
	ctrlMu   sync.Mutex
	ctrlReqs []*Simulation

	// busyScratch is reused across windows to list busy lanes without
	// allocating.
	busyScratch []*Simulation

	stats ShardGroupStats
}

// NewShardGroup wraps root with shards shard lanes. lookahead is the
// minimum cross-lane model delay (the topology partitioner computes it
// from the cut links); it may be zero here and set later with
// SetLookahead, but must be positive before the group runs. Lane rngs are
// derived deterministically from the root seed, so a sharded run is fully
// reproducible for a given (seed, shards).
func NewShardGroup(root *Simulation, shards int, lookahead time.Duration) *ShardGroup {
	if root.group != nil {
		panic("sim: simulation already belongs to a shard group")
	}
	if shards < 1 {
		panic("sim: shard group needs at least one lane")
	}
	g := &ShardGroup{root: root, look: Time(lookahead), join: newHandoff()}
	root.group = g
	root.lane = laneRoot
	for i := 0; i < shards; i++ {
		// Golden-ratio seed spreading: distinct streams per lane, stable
		// across runs. Fault-free runs never draw from lane rngs on the
		// hot path, so shard count cannot perturb fault-free results.
		l := New(root.seed + int64(i+1)*-0x61c8864680b583eb)
		l.group = g
		l.lane = i
		g.lanes = append(g.lanes, l)
		g.workers = append(g.workers, newHandoff())
	}
	return g
}

// SetLookahead installs the conservative window width: the minimum model
// delay of any cross-lane cut edge. Calling it with a smaller value than
// a previous call keeps the smaller (several topologies may share a
// group).
func (g *ShardGroup) SetLookahead(d time.Duration) {
	if d <= 0 {
		panic("sim: non-positive shard lookahead")
	}
	if g.look == 0 || Time(d) < g.look {
		g.look = Time(d)
	}
}

// Lookahead returns the conservative window width.
func (g *ShardGroup) Lookahead() time.Duration { return time.Duration(g.look) }

// Root returns the root simulation (drivers, orchestrators, Run).
func (g *ShardGroup) Root() *Simulation { return g.root }

// Lane returns shard lane i's simulation; model state for shard i must be
// constructed against it.
func (g *ShardGroup) Lane(i int) *Simulation { return g.lanes[i] }

// Lanes returns the shard count.
func (g *ShardGroup) Lanes() int { return len(g.lanes) }

// Stats returns a copy of the scheduler counters.
func (g *ShardGroup) Stats() ShardGroupStats { return g.stats }

// HostStats sums the host-side handoff counters over every run so far.
// Call it while the group is not running.
func (g *ShardGroup) HostStats() ShardHostStats {
	hs := ShardHostStats{Spun: g.join.spun, Parked: g.join.parked}
	for _, w := range g.workers {
		hs.Spun += w.spun
		hs.Parked += w.parked
	}
	return hs
}

// ProcDispatches sums Simulation.ProcDispatches over the root and every
// lane. Call it while the group is not running.
func (g *ShardGroup) ProcDispatches() uint64 {
	n := g.root.dispatches
	for _, l := range g.lanes {
		n += l.dispatches
	}
	return n
}

// laneKey orders simulations inside a serial window: shard lanes by
// index, the root last. A root event at time t must run after shard
// events at t that were pending when the root was woken (the wake fence
// stopped the firing lane exactly there), which the root-last rule
// reproduces.
func (g *ShardGroup) laneKey(s *Simulation) int {
	if s.lane == laneRoot {
		return len(g.lanes)
	}
	return s.lane
}

// sims enumerates lanes then root (allocation-free iteration helper).
func (g *ShardGroup) each(f func(*Simulation)) {
	for _, l := range g.lanes {
		f(l)
	}
	f(g.root)
}

// injectOrder is the drain order: (time, source lane, source seq).
func injectOrder(a, b inject) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.srcLane, b.srcLane); c != 0 {
		return c
	}
	return cmp.Compare(a.srcSeq, b.srcSeq)
}

// drainInjects moves every inbox into its lane's heap, in the
// deterministic (time, source lane, source seq) order.
func (g *ShardGroup) drainInjects() {
	for _, l := range g.lanes {
		g.drainInbox(l)
	}
	g.drainInbox(g.root)
}

// drainInbox drains one inbox. The inbox is double-buffered: senders
// append to one backing array while the drained one is kept for reuse.
func (g *ShardGroup) drainInbox(s *Simulation) {
	s.inboxMu.Lock()
	q := s.inbox
	s.inbox = s.inboxSpare
	s.inboxMu.Unlock()
	if len(q) == 0 {
		s.inboxSpare = q
		return
	}
	slices.SortFunc(q, injectOrder)
	for _, in := range q {
		if in.at < s.now {
			panic(fmt.Sprintf("sim: inject at %v into lane %d already at %v", in.at, s.lane, s.now))
		}
		if in.fn != nil {
			s.At(in.at, in.fn)
		} else {
			s.AtCall(in.at, in.afn, in.arg)
		}
	}
	g.stats.Injects += int64(len(q))
	clear(q) // drop the callbacks' references before the array is reused
	s.inboxSpare = q[:0]
}

// minNext returns the earliest pending event time across all lanes.
func (g *ShardGroup) minNext() (Time, bool) {
	var best Time
	found := false
	g.each(func(s *Simulation) {
		if t, ok := s.peekNext(); ok && (!found || t < best) {
			best, found = t, true
		}
	})
	return best, found
}

// maxNow returns the latest lane clock.
func (g *ShardGroup) maxNow() Time {
	m := g.root.now
	for _, l := range g.lanes {
		if l.now > m {
			m = l.now
		}
	}
	return m
}

// syncNowAll advances every lane clock to at least t (never backward).
func (g *ShardGroup) syncNowAll(t Time) {
	g.each(func(s *Simulation) {
		if s.now < t {
			s.now = t
		}
	})
}

// stoppedAny reports whether Stop was called anywhere in the group.
func (g *ShardGroup) stoppedAny() bool {
	if g.root.stopped {
		return true
	}
	for _, l := range g.lanes {
		if l.stopped {
			return true
		}
	}
	return false
}

// run is the group scheduler; Simulation.Run on the root delegates here.
// Semantics match the serial Run: execute until quiescent, Stop, or the
// clock would pass limit (limit <= 0: no limit).
//
// The mailbox marker declares the Run→coordinator hand-off to the
// shardsafety analyzer: the barrier scheduler below this point owns every
// lane by design (it is what serializes cross-shard access), so the
// caller's shard context must not propagate into it — exactly like a
// mailbox delivery, the coordinator is the other side of the fence.
//
//askcheck:mailbox
func (g *ShardGroup) run(limit Time) Time {
	r := g.root
	if r.running {
		panic("sim: Run called re-entrantly")
	}
	if g.look <= 0 {
		panic("sim: shard group Run before SetLookahead")
	}
	r.running = true
	defer func() { r.running = false }()
	g.each(func(s *Simulation) { s.stopped = false })
	g.startWorkers()
	defer g.stopWorkers()
	for {
		g.drainInjects()
		t, ok := g.minNext()
		if !ok {
			break
		}
		if limit > 0 && t > limit {
			g.syncNowAll(limit)
			return limit
		}
		safe := t + g.look
		if limit > 0 && safe > limit {
			// Events at exactly limit still run (serial Run stops only when
			// the head is strictly past limit).
			safe = limit + 1
		}
		g.stats.Windows++
		if g.rootBusy(safe) {
			g.runSerialWindow(safe)
		} else {
			g.runParallelWindow(safe)
		}
		g.grantControl()
		if g.stoppedAny() {
			break
		}
	}
	g.syncNowAll(g.maxNow())
	return r.now
}

// rootBusy reports whether the root lane has an event inside the window.
func (g *ShardGroup) rootBusy(safe Time) bool {
	t, ok := g.root.peekNext()
	return ok && t < safe
}

// runSerialWindow executes every lane's events below safe on the calling
// goroutine, merged in (time, lane, seq) order with all clocks slaved to
// the merge point — the exact-semantics fallback for windows where the
// zero-lookahead root lane is active.
func (g *ShardGroup) runSerialWindow(safe Time) {
	g.stats.SerialWindows++
	for {
		var pick *Simulation
		var at Time
		g.each(func(s *Simulation) {
			t, ok := s.peekNext()
			if !ok || t >= safe {
				return
			}
			if pick == nil || t < at || (t == at && g.laneKey(s) < g.laneKey(pick)) {
				pick, at = s, t
			}
		})
		if pick == nil {
			return
		}
		// Slave every clock to the merge so synchronous cross-shard calls
		// (driver touching a daemon, chaos touching a link) observe and
		// schedule at the merge time on any lane.
		g.syncNowAll(at)
		pick.execOne()
		if g.stoppedAny() {
			return
		}
	}
}

// runParallelWindow executes the window on the busy lanes: the lowest one
// on the calling goroutine, the others on their workers.
func (g *ShardGroup) runParallelWindow(safe Time) {
	busy := g.busyLanes(safe)
	if len(busy) == 0 {
		return
	}
	for _, l := range busy {
		l.windowBound = safe
		l.windowStop = false
	}
	own, rest := busy[0], busy[1:]
	if len(rest) == 0 {
		// One busy lane: run its window inline — no handoff, and since no
		// other lane executes, cross-lane schedules may land directly
		// (they are ordered exactly as a drain of this lane's inbox).
		g.stats.InlineWindows++
		own.window()
		if own.windowStop {
			g.stats.WakeFences++
		}
		return
	}
	g.stats.ParallelWindows++
	g.parallel = true
	g.own = own
	g.unfinished.Store(int32(len(rest)))
	for _, l := range rest {
		g.workers[l.lane].signal(waitGo)
	}
	own.window()
	if g.parallel {
		g.awaitWorkers()
	} // else own's control section already joined (EnterControlFrom)
	g.own = nil
	for _, l := range busy {
		if l.windowStop && !l.suspended {
			g.stats.WakeFences++
		}
	}
	own.suspended = false
}

// awaitWorkers waits until every released worker has finished its window
// or suspended in EnterControlFrom, and ends the parallel phase.
func (g *ShardGroup) awaitWorkers() {
	g.join.await(g.spin)
	g.parallel = false
}

// finished reports a worker's window (or grant) complete, or suspended.
func (g *ShardGroup) finished() {
	if g.unfinished.Add(-1) == 0 {
		g.join.signal(waitGo)
	}
}

// busyLanes returns the shard lanes with events inside the window.
func (g *ShardGroup) busyLanes(safe Time) []*Simulation {
	busy := g.busyScratch[:0]
	for _, l := range g.lanes {
		if t, ok := l.peekNext(); ok && t < safe {
			busy = append(busy, l)
		}
	}
	g.busyScratch = busy
	return busy
}

// grantControl serves the control rendezvous queue: each suspended worker
// lane resumes exclusively, in lane order, with the group in serial phase.
func (g *ShardGroup) grantControl() {
	if len(g.ctrlReqs) == 0 {
		return
	}
	slices.SortFunc(g.ctrlReqs, func(a, b *Simulation) int { return a.lane - b.lane })
	for _, l := range g.ctrlReqs {
		g.stats.ControlRendezvs++
		// The lane finishes the suspended event (and its stopped window)
		// before reporting finished.
		g.unfinished.Store(1)
		g.workers[l.lane].signal(waitGo)
		g.join.await(g.spin)
		l.suspended = false
	}
	clear(g.ctrlReqs)
	g.ctrlReqs = g.ctrlReqs[:0]
}

// startWorkers launches one worker goroutine per lane that can run on one
// (lane 0 is always the lowest busy lane, so the coordinator runs it) and
// decides whether waiters may poll: only if every lane goroutine can hold
// its own P, or polling would steal the CPU the awaited lane needs.
func (g *ShardGroup) startWorkers() {
	g.spin = len(g.lanes) <= min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	for i := 1; i < len(g.lanes); i++ {
		g.exited.Add(1)
		go g.worker(g.lanes[i], g.workers[i])
	}
}

// stopWorkers ends the run's worker goroutines and waits until they have
// returned, so no worker outlives Run.
func (g *ShardGroup) stopWorkers() {
	for _, w := range g.workers[1:] {
		w.signal(waitExit)
	}
	g.exited.Wait()
}

// worker executes lane l's windows and grants until the run ends.
func (g *ShardGroup) worker(l *Simulation, w *handoff) {
	defer g.exited.Done()
	for w.await(g.spin) == waitGo {
		l.window()
		g.finished()
	}
}

// EnterControlFrom suspends lane s's window for an exclusive cross-shard
// control section and returns the release function. Call it (on the
// calling shard's simulation) around synchronous control-plane RPCs that
// must touch foreign shard state — e.g. a fat-tree daemon registering a
// flow at every spine. Outside a parallel window it is a no-op: the
// group is already single-threaded and every lane is quiescent.
//
// The caller blocks until every other lane has finished the current
// window or suspended; sections are granted in deterministic lane order
// and run in serial phase, so results do not depend on goroutine
// interleaving.
//
//askcheck:mailbox
func (g *ShardGroup) EnterControlFrom(s *Simulation) func() {
	if g == nil || !g.parallel || s.lane == laneRoot {
		return func() {}
	}
	// Stop this lane's window after the current event: the rest of it
	// must not run before the exclusive section completes.
	s.windowStop = true
	s.suspended = true
	if s == g.own {
		// The coordinator runs this lane, the window's lowest busy lane, so
		// its section is the first grant: wait for the workers, then run
		// it here in serial phase.
		g.awaitWorkers()
		g.stats.ControlRendezvs++
		return func() {}
	}
	g.ctrlMu.Lock()
	g.ctrlReqs = append(g.ctrlReqs, s)
	g.ctrlMu.Unlock()
	// Count this lane's window as finished so the barrier can close, then
	// wait for the exclusive grant.
	g.finished()
	if w := g.workers[s.lane]; w.await(g.spin) == waitExit {
		// The run is unwinding from a panic on the coordinator: finish
		// this event and let the worker loop see the exit too.
		w.signal(waitExit)
	}
	return func() {}
}

// --- Simulation-side shard hooks ----------------------------------------
//
// Everything below is only reachable when the simulation belongs to a
// ShardGroup (group != nil); standalone simulations never touch it, which
// is the serial-seam guarantee the goldens pin.

// Group returns the shard group this simulation belongs to (nil for a
// standalone serial simulation).
func (s *Simulation) Group() *ShardGroup { return s.group }

// ShardLane returns the lane index of this simulation within its group,
// or -1 for the root (and for standalone simulations).
func (s *Simulation) ShardLane() int { return s.lane }

// peekNext returns the time of the earliest live event, reaping cancelled
// heads. Called only from barrier context (no worker executing this lane).
func (s *Simulation) peekNext() (Time, bool) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if s.store[top.idx].dead {
			s.heapPop()
			s.recycle(top.idx)
			continue
		}
		return top.at, true
	}
	return 0, false
}

// execOne pops and executes the head event, which the caller has verified
// to be live. Body is identical to the serial Run loop's execute step.
func (s *Simulation) execOne() {
	top := s.heap[0]
	e := &s.store[top.idx]
	s.heapPop()
	s.now = top.at
	// Copy the callback out and recycle the slot BEFORE running it (same
	// rationale as in Run).
	fn, afn, arg := e.fn, e.afn, e.arg
	s.recycle(top.idx)
	s.pending--
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// window executes this lane's events strictly below windowBound, in the
// exact per-lane (time, seq) order the serial kernel uses. It returns
// early on a wake fence (windowStop) or Stop.
func (s *Simulation) window() {
	for len(s.heap) > 0 && !s.windowStop && !s.stopped {
		top := s.heap[0]
		if s.store[top.idx].dead {
			s.heapPop()
			s.recycle(top.idx)
			continue
		}
		if top.at >= s.windowBound {
			return
		}
		s.execOne()
	}
}

// enqueueInject buffers one cross-lane schedule in this lane's inbox.
func (s *Simulation) enqueueInject(in inject) {
	s.inboxMu.Lock()
	s.inbox = append(s.inbox, in)
	s.inboxMu.Unlock()
}

// InjectCall schedules fn(arg) at time t on this simulation on behalf of
// code executing in src's event context. It is the cross-lane counterpart
// of AtCall — the delivery primitive for cut links (netsim mailbox
// rewiring). Same-lane or ungrouped calls degrade to plain AtCall, so
// callers need no mode check. During a parallel window the schedule is
// buffered and drained at the barrier in deterministic (time, source
// lane, source seq) order; t must respect the group lookahead (t at or
// beyond the window bound), which the cut-link delay guarantees by
// construction.
//
//askcheck:mailbox
func (s *Simulation) InjectCall(src *Simulation, t Time, fn func(any), arg any) {
	if s == src || src.group == nil || src.group != s.group {
		s.AtCall(t, fn, arg)
		return
	}
	g := src.group
	if g.parallel {
		if t < src.windowBound {
			panic(fmt.Sprintf("sim: inject at %v violates lookahead (window bound %v)", t, src.windowBound))
		}
		s.enqueueInject(inject{at: t, srcLane: int32(src.lane), srcSeq: src.injSeq, afn: fn, arg: arg})
		src.injSeq++
		return
	}
	// Serial phase (construction, serial window, inline window, control
	// rendezvous): schedule directly. The lookahead argument still bounds t
	// at or above the target's clock; a violation here means the declared
	// cut delay is wrong, so fail loudly rather than reorder the past.
	if t < s.now {
		panic(fmt.Sprintf("sim: inject at %v into lane %d already at %v", t, s.lane, s.now))
	}
	s.AtCall(t, fn, arg)
}

// wakeTo schedules fn at the current time on the waiter's home
// simulation. It is the cross-lane-aware form of At(now, fn) used by
// Signal.Fire and Resource.Release: same-home wakes take the exact legacy
// path; a cross-lane wake fences the firing lane's window (so the woken
// root driver observes this shard exactly at the fire point) and routes
// through the target's mailbox during parallel windows.
//
// Fire/Release must be invoked from s's own event context — true for all
// model code, where signals and resources are owned by the lane that
// fires them, with the root driver as the only cross-lane waiter.
//
//askcheck:mailbox
func (s *Simulation) wakeTo(home *Simulation, fn func()) {
	if home == s || s.group == nil || home.group != s.group {
		s.At(s.now, fn)
		return
	}
	g := s.group
	if s.lane != laneRoot {
		// Conservative fence: nothing past the wake may run on this lane
		// until the waiter has been dispatched (next window).
		s.windowStop = true
		if g.parallel {
			if home != g.root {
				panic("sim: cross-shard wake of a non-root process during a parallel window")
			}
			home.enqueueInject(inject{at: s.now, srcLane: int32(s.lane), srcSeq: s.injSeq, fn: fn})
			s.injSeq++
			return
		}
	}
	// Serial phase: direct scheduling. Clocks are slaved together inside
	// serial windows; during a control rendezvous the target may sit
	// slightly ahead (it finished the window), so clamp to its clock —
	// the wake cannot land in its past.
	at := s.now
	if home.now > at {
		at = home.now
	}
	home.At(at, fn)
}

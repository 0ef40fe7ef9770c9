package sim

import (
	"fmt"
	"time"
)

// Proc is a goroutine-backed simulation process. A Proc's body runs
// interleaved with the event loop: whenever it blocks (Sleep, Wait, Acquire)
// it schedules its own wake-up and parks, returning control to the scheduler.
// At most one Proc or event callback runs at any moment.
type Proc struct {
	sim  *Simulation
	name string

	wake  chan struct{} // scheduler -> proc: you may run
	yield chan struct{} // proc -> scheduler: I parked or finished
	done  bool

	// dispatchFn is the method value p.dispatch, bound once at Spawn. Every
	// blocking call (Sleep, Wait, Acquire) schedules the proc's own wake-up;
	// caching the bound method avoids materializing a fresh method value —
	// one heap allocation — per block.
	dispatchFn func()
}

// Spawn starts fn as a new process at the current virtual time. The process
// begins executing when the event loop reaches the spawn event. name is used
// in diagnostics only.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:   s,
		name:  name,
		wake:  make(chan struct{}),
		yield: make(chan struct{}),
	}
	p.dispatchFn = p.dispatch
	go func() {
		<-p.wake
		fn(p)
		p.done = true
		p.yield <- struct{}{}
	}()
	s.At(s.now, p.dispatchFn)
	return p
}

// dispatch transfers control to the process and waits until it parks or
// finishes. It runs in event-callback context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	p.sim.dispatches++
	p.wake <- struct{}{}
	<-p.yield
}

// park returns control to the scheduler and blocks until re-dispatched. The
// caller must already have scheduled something that will call p.dispatch.
func (p *Proc) park() {
	p.yield <- struct{}{}
	<-p.wake
}

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Simulation { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: proc %s sleeping for negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.sim.After(d, p.dispatchFn)
	p.park()
}

// SleepUntil suspends the process until virtual time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sim.now {
		return
	}
	p.sim.At(t, p.dispatchFn)
	p.park()
}

// Wait suspends the process until the signal fires.
func (p *Proc) Wait(sg *Signal) {
	sg.subscribeFrom(p.sim, p.dispatchFn)
	p.park()
}

// WaitTimeout suspends the process until the signal fires or d elapses,
// reporting whether the signal fired first. Exactly one waker dispatches
// the process; the loser becomes a no-op.
func (p *Proc) WaitTimeout(sg *Signal, d time.Duration) (fired bool) {
	done := false
	var tm Timer
	sg.subscribeFrom(p.sim, func() {
		if done {
			return
		}
		done = true
		fired = true
		tm.Stop()
		p.dispatch()
	})
	tm = p.sim.After(d, func() {
		if done {
			return
		}
		done = true
		p.dispatch()
	})
	p.park()
	return fired
}

// waiter is one pending wake-up: the callback plus the simulation whose
// event loop must run it. In a sharded group a process can wait on a
// signal or resource owned by another lane; routing the wake to the
// waiter's home lane (rather than the owner's) keeps every process on the
// lane it was spawned on. Continuation waiters (Resource.AcquireCall) carry
// afn+arg instead of fn and always live on the owner's lane.
type waiter struct {
	fn   func()
	afn  func(any)
	arg  any
	home *Simulation
}

// Signal is a broadcast condition: Fire schedules every pending subscriber
// at the current time and clears the list. Subscribing after Fire waits for
// the next Fire. Fire must be called from the event context of the
// simulation the signal is bound to.
type Signal struct {
	sim     *Simulation
	waiters []waiter
}

// NewSignal returns a Signal bound to s.
func NewSignal(s *Simulation) *Signal { return &Signal{sim: s} }

// Subscribe registers fn to be scheduled on the next Fire. The callback's
// home is the signal's own simulation; process waits use subscribeFrom so
// cross-lane waiters wake on their own lane.
func (sg *Signal) Subscribe(fn func()) { sg.waiters = append(sg.waiters, waiter{fn: fn, home: sg.sim}) }

// subscribeFrom registers fn with an explicit home simulation.
func (sg *Signal) subscribeFrom(home *Simulation, fn func()) {
	sg.waiters = append(sg.waiters, waiter{fn: fn, home: home})
}

// Fire schedules all pending subscribers to run at the current virtual time.
// It only schedules and never runs a callback inline, so nothing can
// subscribe while the list is walked: the backing array is cleared and
// reused, keeping steady-state Subscribe allocation-free.
func (sg *Signal) Fire() {
	ws := sg.waiters
	for i := range ws {
		sg.sim.wakeTo(ws[i].home, ws[i].fn)
		ws[i] = waiter{}
	}
	sg.waiters = ws[:0]
}

// Waiting returns the number of pending subscribers.
func (sg *Signal) Waiting() int { return len(sg.waiters) }

// Resource is a counting semaphore with a FIFO wait queue, used to model
// contended capacity such as CPU cores. Acquire blocks the calling process
// until a unit is available.
type Resource struct {
	sim      *Simulation
	capacity int
	inUse    int
	queue    []waiter
	// busy accounting for utilization metrics
	busyNs     int64
	lastChange Time
}

// NewResource returns a Resource with the given capacity.
func NewResource(s *Simulation, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) account() {
	now := r.sim.now
	r.busyNs += int64(r.inUse) * int64(now-r.lastChange)
	r.lastChange = now
}

// BusyTime returns the aggregate unit-busy time accumulated so far
// (e.g. 2 units held for 3s contributes 6s).
func (r *Resource) BusyTime() time.Duration {
	r.account()
	return time.Duration(r.busyNs)
}

// Utilization returns average busy fraction over [0, now].
func (r *Resource) Utilization() float64 {
	if r.sim.now == 0 {
		return 0
	}
	return float64(r.BusyTime()) / (float64(r.sim.now) * float64(r.capacity))
}

// Acquire blocks p until one unit is available, then holds it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.account()
		r.inUse++
		return
	}
	r.queue = append(r.queue, waiter{fn: p.dispatchFn, home: p.sim})
	p.park()
	// Ownership was transferred to us by Release before dispatch.
}

// AcquireCall is the continuation form of Acquire for callback-driven state
// machines. If a unit is free it is taken inline and AcquireCall reports
// true; fn is not called. Otherwise the caller joins the FIFO queue, fn(arg)
// runs on the resource's simulation once Release hands it the unit, and
// AcquireCall reports false.
func (r *Resource) AcquireCall(fn func(any), arg any) bool {
	if r.TryAcquire() {
		return true
	}
	r.queue = append(r.queue, waiter{afn: fn, arg: arg})
	return false
}

// TryAcquire takes a unit without blocking, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if len(r.queue) > 0 {
		// Hand the unit directly to the next waiter: inUse stays constant.
		next := r.queue[0]
		r.queue = r.queue[1:]
		if next.afn != nil {
			r.sim.AtCall(r.sim.now, next.afn, next.arg)
		} else {
			r.sim.wakeTo(next.home, next.fn)
		}
		return
	}
	r.account()
	r.inUse--
}

// Use runs the critical section modelled as holding one unit for d of
// virtual time: acquire, sleep d, release.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.queue) }

// WaitGroup counts down outstanding work; Wait blocks until the count is 0.
type WaitGroup struct {
	sim   *Simulation
	count int
	sg    *Signal
}

// NewWaitGroup returns a WaitGroup bound to s.
func NewWaitGroup(s *Simulation) *WaitGroup {
	return &WaitGroup{sim: s, sg: NewSignal(s)}
}

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter; at zero it releases all waiters.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.sg.Fire()
	}
}

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	p.Wait(wg.sg)
}

// Package cpumodel models host CPU capacity and per-operation costs.
//
// The paper's testbed servers have 56 Xeon Gold 5120T cores (§5.1). Each
// simulated host owns a sim.Resource of that many cores; model code holds a
// core for the operation's calibrated virtual duration, either from a
// process (Exec, Thread.Run) or, on the host daemon's poll-mode data path,
// from a kernel-callback state machine (Thread.RunCall). Utilization and
// busy-time metrics fall out of the resource accounting and reproduce the
// paper's CPU-usage comparisons (Fig. 7).
package cpumodel

import (
	"time"

	"repro/internal/sim"
)

// Host is one server's CPU.
type Host struct {
	sim   *sim.Simulation
	cores *sim.Resource
}

// NewHost returns a host with the given core count.
func NewHost(s *sim.Simulation, cores int) *Host {
	return &Host{sim: s, cores: sim.NewResource(s, cores)}
}

// Cores exposes the underlying resource (for custom acquire patterns such
// as threads pinned for a task's lifetime).
func (h *Host) Cores() *sim.Resource { return h.cores }

// NumCores returns the host's core count.
func (h *Host) NumCores() int { return h.cores.Capacity() }

// Exec runs d of CPU work on one core, blocking p for queueing plus d.
func (h *Host) Exec(p *sim.Proc, d time.Duration) { h.cores.Use(p, d) }

// Utilization returns the average busy fraction of the host's cores.
func (h *Host) Utilization() float64 { return h.cores.Utilization() }

// BusyTime returns aggregate core-busy time.
func (h *Host) BusyTime() time.Duration { return h.cores.BusyTime() }

// Thread is a core held for an extended period (e.g. a DPDK data-channel
// thread pinned for the daemon's lifetime). Work executed on a Thread pays
// no per-operation acquire cost; the core counts as busy only while work
// runs (DPDK threads spin, but the paper reports effective CPU use as
// channels × cores, which per-work accounting reproduces).
type Thread struct {
	host *Host

	// RunCall continuation state: one piece of work at a time. startFn and
	// endFn are t.start and t.end, bound on first use so a RunCall costs
	// no closure.
	d       time.Duration
	fn      func(any)
	arg     any
	startFn func(any)
	endFn   func(any)
}

// NewThread returns a thread abstraction on h.
func (h *Host) NewThread() *Thread { return &Thread{host: h} }

// Run executes d of CPU work on the thread (blocking p for exactly d —
// pinned threads do not queue against other threads).
func (t *Thread) Run(p *sim.Proc, d time.Duration) {
	t.host.cores.Acquire(p)
	p.Sleep(d)
	t.host.cores.Release()
}

// RunCall is the continuation form of Run for callback-driven state
// machines: it holds a core for d (> 0) of virtual time, releases it, and
// then calls fn(arg). It schedules exactly the events Run parks on — one
// when a queued core is handed over, one when the work ends — so a state
// machine built on it keeps a process's timing and event order. A Thread
// runs one piece of work at a time.
func (t *Thread) RunCall(d time.Duration, fn func(any), arg any) {
	if d <= 0 {
		panic("cpumodel: RunCall needs positive work")
	}
	if t.endFn == nil {
		t.startFn, t.endFn = t.start, t.end
	}
	t.d, t.fn, t.arg = d, fn, arg
	if t.host.cores.AcquireCall(t.startFn, nil) {
		t.start(nil)
	}
}

// start runs once RunCall holds a core: the work takes t.d.
func (t *Thread) start(any) { t.host.sim.AfterCall(t.d, t.endFn, nil) }

// end releases the core and resumes the caller.
func (t *Thread) end(any) {
	t.host.cores.Release()
	fn, arg := t.fn, t.arg
	t.fn, t.arg = nil, nil
	fn(arg)
}

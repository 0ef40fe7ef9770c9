package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/ask"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/tenancy"
	"repro/internal/window"
)

// simOutputs are one rep's virtual-time results: a function of the seed
// alone, whatever the host does. Reps of one run, and the traced run, must
// reproduce them exactly.
type simOutputs struct {
	JCT        []sim.Time // TaskResult.Elapsed per task, task order
	Absorbed   int64      // tuples aggregated by any switch
	Eligible   int64      // input tuples minus long-key tuples
	ResultKeys int64
	Recv       hostd.RecvTaskStats // summed over tasks
	Host       hostd.Stats         // summed over daemons
	Switch     switchd.Stats       // summed over switches
	TaskSwitch switchd.TaskStats   // summed over tasks
	Window     window.SenderStats  // summed over every data channel
	Links      netsim.LinkStats    // summed over the public links
	Shard      sim.ShardGroupStats
	// Modelled core busy time of receivers and senders, and the core time
	// they had (cores × task JCT), for the cpumodel busy fractions.
	RecvBusy, RecvCap time.Duration
	SendBusy, SendCap time.Duration
	Admitted          int64 // tenancy admissions (tasks that got regions)
	Rejected          int64 // tenancy admission rejections
}

// repRecord is one rep, run in its own process: its host measurements,
// sim outputs and task outcomes, and with tracing on its layer evidence.
type repRecord struct {
	GenS, RefS float64 // input generation and reference computation
	// SetupS holds every cluster build of the rep: the one the tasks ran on
	// first, then the extra builds made after the run.
	SetupS  []float64
	RunS    float64 // first StartTask* to last Get
	VerifyS float64
	// PeakRSSMB is the process peak RSS after the run, before the extra
	// builds.
	PeakRSSMB float64
	// RetainedMB is the live heap each extra build leaves behind once it is
	// dropped.
	RetainedMB float64
	Tuples     int64
	Attempted  int
	Failed     int
	Failures   []string

	AllocBytes, AllocObjs, GCCycles, SchedEvents uint64
	GCCPUFrac                                    float64 // GC CPU over CPU in use (runtime CPU classes)
	ProcCPUS                                     float64 // process CPU seconds in the run region

	Sim   simOutputs
	Trace *traceRecord `json:",omitempty"`
}

// extraSetups is how many more clusters a rep builds (and drops) after its
// run, so setup_s is a median over enough builds to be steady.
const extraSetups = 3

// childRep is one rep: generate the inputs and references, build a
// cluster, run and verify the tasks, then time the extra builds.
func childRep(w *workloadDef, seed int64, perSender int, traced bool) (*repRecord, error) {
	t0 := time.Now()
	tasks := w.gen(seed, perSender)
	genS := time.Since(t0).Seconds()
	t0 = time.Now()
	setReferences(tasks)
	refS := time.Since(t0).Seconds()

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	r, err := runRep(w, seed, tasks, tr)
	if err != nil {
		return nil, err
	}
	r.GenS, r.RefS = genS, refS
	r.PeakRSSMB = peakRSSMB()

	live0 := liveHeap()
	for i := 0; i < extraSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
	}
	r.RetainedMB = (liveHeap() - live0) / extraSetups / (1 << 20)

	if traced {
		if r.Trace, err = tr.record(tasks); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// liveHeap is the heap still reachable after a full collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// runtimeSample is a point-in-time read of the Go runtime and the process.
type runtimeSample struct {
	allocBytes, allocObjs, gcCycles, schedEvents uint64
	gcCPU, idleCPU, totalCPU                     float64
	procCPU                                      time.Duration
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var sched uint64
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range s[3].Value.Float64Histogram().Counts {
			sched += c
		}
	}
	return runtimeSample{
		allocBytes:  s[0].Value.Uint64(),
		allocObjs:   s[1].Value.Uint64(),
		gcCycles:    s[2].Value.Uint64(),
		schedEvents: sched,
		gcCPU:       s[4].Value.Float64(),
		idleCPU:     s[5].Value.Float64(),
		totalCPU:    s[6].Value.Float64(),
		procCPU:     processCPU(),
	}
}

// setRuntime records the runtime and process deltas between a and b.
func (r *repRecord) setRuntime(a, b runtimeSample) {
	r.AllocBytes = b.allocBytes - a.allocBytes
	r.AllocObjs = b.allocObjs - a.allocObjs
	r.GCCycles = b.gcCycles - a.gcCycles
	r.SchedEvents = b.schedEvents - a.schedEvents
	r.ProcCPUS = (b.procCPU - a.procCPU).Seconds()
	if used := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU); used > 0 {
		r.GCCPUFrac = (b.gcCPU - a.gcCPU) / used
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runRep builds a fresh deployment and runs every task of the workload to
// quiescence. The timed run region spans the first StartTask* to the last
// Get; input generation happened before, verification happens after. tr,
// when non-nil, wraps the switches and profiles the run region.
func runRep(w *workloadDef, seed int64, tasks []*task, tr *tracer) (*repRecord, error) {
	runtime.GC()
	t0 := time.Now()
	d, err := w.setup(seed)
	setup := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if tr != nil {
		tr.wrap(d)
		if err := tr.begin(); err != nil {
			return nil, err
		}
	}

	pend := make([]pending, len(tasks))
	errs := make([]error, len(tasks))
	results := make([]*ask.TaskResult, len(tasks))
	m0 := readRuntime()
	t1 := time.Now()
	for i, t := range tasks {
		pend[i], errs[i] = d.start(t)
	}
	d.sim.Run(0)
	for i, p := range pend {
		if errs[i] == nil {
			results[i], errs[i] = p.Get()
		}
	}
	run := time.Since(t1)
	m1 := readRuntime()
	if tr != nil {
		if err := tr.end(run); err != nil {
			return nil, err
		}
	}

	out := &repRecord{SetupS: []float64{setup.Seconds()}, RunS: run.Seconds(), Attempted: len(tasks)}
	out.setRuntime(m0, m1)
	v0 := time.Now()
	for i, t := range tasks {
		var msg string
		switch {
		case errs[i] != nil:
			msg = errs[i].Error()
		case !results[i].Result.Equal(t.want):
			msg = "inexact result: " + results[i].Result.Diff(t.want, 4)
		}
		if msg != "" {
			out.Failed++
			out.Failures = append(out.Failures, fmt.Sprintf("task %d: %s", t.spec.ID, msg))
		}
	}
	out.VerifyS = time.Since(v0).Seconds()
	for _, t := range tasks {
		out.Tuples += t.tuples
	}
	out.Sim = collectSim(d, tasks, errs, results)
	return out, nil
}

// collectSim reads the sim outputs through the public stats accessors.
func collectSim(d *deployment, tasks []*task, errs []error, results []*ask.TaskResult) simOutputs {
	var o simOutputs
	for i, t := range tasks {
		var ovl *tenancy.OverloadError
		if errors.As(errs[i], &ovl) {
			o.Rejected++
		}
		res := results[i]
		if res == nil {
			o.JCT = append(o.JCT, -1)
			continue
		}
		if d.tenancy != nil {
			o.Admitted++
		}
		o.JCT = append(o.JCT, res.Elapsed)
		o.Absorbed += res.Switch.TuplesAggregated
		o.Eligible += t.tuples - res.Recv.LongTuples
		o.ResultKeys += int64(len(res.Result))
		addRecv(&o.Recv, res.Recv)
		addTaskSwitch(&o.TaskSwitch, res.Switch)
		jct := time.Duration(res.Elapsed)
		recv := d.cpus[t.spec.Receiver]
		o.RecvBusy += recv.BusyTime()
		o.RecvCap += jct * time.Duration(recv.NumCores())
		for _, s := range t.spec.Senders {
			o.SendBusy += d.cpus[s].BusyTime()
			o.SendCap += jct * time.Duration(d.cpus[s].NumCores())
		}
	}
	for _, dm := range d.daemons {
		addHost(&o.Host, dm.Stats())
		for _, cs := range dm.ChannelStats() {
			addWindow(&o.Window, cs)
		}
	}
	for _, sw := range d.switches {
		addSwitch(&o.Switch, sw.Stats())
	}
	for _, l := range d.links {
		addLink(&o.Links, l.Stats())
	}
	if d.group != nil {
		o.Shard = d.group.Stats()
	}
	return o
}

func addRecv(a *hostd.RecvTaskStats, b hostd.RecvTaskStats) {
	a.DataPackets += b.DataPackets
	a.ResidueTuples += b.ResidueTuples
	a.LongTuples += b.LongTuples
	a.ReplayTuples += b.ReplayTuples
	a.SwitchEntries += b.SwitchEntries
	a.Swaps += b.Swaps
	a.Degraded += b.Degraded
}

func addTaskSwitch(a *switchd.TaskStats, b switchd.TaskStats) {
	a.TuplesIn += b.TuplesIn
	a.TuplesAggregated += b.TuplesAggregated
	a.TuplesConflicted += b.TuplesConflicted
	a.DataPackets += b.DataPackets
	a.AckedPackets += b.AckedPackets
	a.ForwardedPackets += b.ForwardedPackets
}

func addHost(a *hostd.Stats, b hostd.Stats) {
	a.TuplesSent += b.TuplesSent
	a.LongTuplesSent += b.LongTuplesSent
	a.PacketsSent += b.PacketsSent
	a.ResidueTuples += b.ResidueTuples
	a.SwitchTuples += b.SwitchTuples
	a.SwapsTriggered += b.SwapsTriggered
	a.PacketsReceived += b.PacketsReceived
	a.CorruptDropped += b.CorruptDropped
	for i := range a.SlotFill {
		a.SlotFill[i] += b.SlotFill[i]
	}
}

func addSwitch(a *switchd.Stats, b switchd.Stats) {
	a.Forwarded += b.Forwarded
	a.UnregisteredFwd += b.UnregisteredFwd
	a.StaleDropped += b.StaleDropped
	a.DupPackets += b.DupPackets
	a.SwitchAcks += b.SwitchAcks
	a.Swaps += b.Swaps
	a.Fetches += b.Fetches
	a.Clears += b.Clears
	a.Crashes += b.Crashes
	a.Reboots += b.Reboots
	a.DroppedDown += b.DroppedDown
	a.Probes += b.Probes
	a.Revocations += b.Revocations
	a.CorruptDropped += b.CorruptDropped
}

func addWindow(a *window.SenderStats, b window.SenderStats) {
	a.Sent += b.Sent
	a.Retransmits += b.Retransmits
	a.Acked += b.Acked
	a.DupAcks += b.DupAcks
	a.Aborts += b.Aborts
	a.Resets += b.Resets
}

func addLink(a *netsim.LinkStats, b netsim.LinkStats) {
	a.TxFrames += b.TxFrames
	a.TxWireBytes += b.TxWireBytes
	a.TxGoodBytes += b.TxGoodBytes
	a.Dropped += b.Dropped
	a.Duplicated += b.Duplicated
	a.Reordered += b.Reordered
	a.Corrupted += b.Corrupted
	a.Truncated += b.Truncated
}

// The helpers below keep the sim outputs' units in one place.

func medianJCTms(o simOutputs) float64 {
	ms := make([]float64, len(o.JCT))
	for i, t := range o.JCT {
		ms[i] = float64(t) / 1e6
	}
	return median(ms)
}

func absorbFrac(o simOutputs) float64 { return ratio(o.Absorbed, o.Eligible) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

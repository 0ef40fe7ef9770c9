package ask

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
)

// lifecycle is the task driver every deployment shape embeds: spec
// validation, the driver process, PendingTask/Get, TaskResult assembly and
// the per-host accessors. A shape supplies only its build step (switches,
// fabric, and one addHost call per server) and switchStats.
type lifecycle struct {
	// Sim is the deterministic virtual-time kernel tasks run on.
	Sim *sim.Simulation
	// Tel is the cluster observability set (nil unless Telemetry is
	// enabled).
	Tel *telemetry.Set

	cfg     core.Config
	daemons map[core.HostID]*hostd.Daemon
	cpus    map[core.HostID]*cpumodel.Host
	// switchStats sums a task's switch-side counters over the switches
	// that may have aggregated it.
	switchStats func(spec core.TaskSpec) switchd.TaskStats
	// sampler, when set, runs only while tasks are in flight: it
	// self-reschedules on the sim clock, so leaving it running on an idle
	// cluster would keep Sim.Run(0) from quiescing. Only the rack sets it.
	sampler     *telemetry.Sampler
	activeTasks int
}

func newLifecycle(s *sim.Simulation, cfg core.Config) lifecycle {
	return lifecycle{
		Sim:     s,
		cfg:     cfg,
		daemons: make(map[core.HostID]*hostd.Daemon),
		cpus:    make(map[core.HostID]*cpumodel.Host),
	}
}

// setDefaults replaces zero-valued options with the paper's defaults: the
// ASK configuration, 100 Gbps / 1 µs links, 56 cores per host, and the
// default switch tables.
func setDefaults(cfg *core.Config, cores *int, sw *switchd.Options, links ...*netsim.LinkConfig) {
	if cfg.NumAAs == 0 {
		*cfg = core.DefaultConfig()
	}
	for _, l := range links {
		if l.BandwidthBps == 0 {
			*l = netsim.DefaultLinkConfig()
		}
	}
	if *cores == 0 {
		*cores = cpumodel.DefaultCores
	}
	if sw.MaxFlows == 0 {
		*sw = switchd.DefaultOptions()
	}
}

// addHost boots server id on sim lane s: a CPU model with the given core
// count and a daemon attached to net under controller ctl.
func (lc *lifecycle) addHost(s *sim.Simulation, net netsim.HostFabric, id core.HostID, cores int, ctl hostd.Controller, sink telemetry.Sink) (*hostd.Daemon, error) {
	cpu := cpumodel.NewHost(s, cores)
	d, err := hostd.New(s, net, cpu, lc.cfg, id, ctl, sink)
	if err != nil {
		return nil, err
	}
	lc.daemons[id] = d
	lc.cpus[id] = cpu
	return d, nil
}

// Daemon returns the host daemon of a server.
func (lc *lifecycle) Daemon(h core.HostID) *hostd.Daemon { return lc.daemons[h] }

// CPU returns the CPU model of a server.
func (lc *lifecycle) CPU(h core.HostID) *cpumodel.Host { return lc.cpus[h] }

// Config returns the deployment configuration.
func (lc *lifecycle) Config() core.Config { return lc.cfg }

// Simulation returns the deterministic virtual-time kernel (the
// chaos.Fabric surface).
func (lc *lifecycle) Simulation() *sim.Simulation { return lc.Sim }

// TelemetrySet returns the cluster observability set, nil when telemetry is
// disabled (the chaos.Fabric surface).
func (lc *lifecycle) TelemetrySet() *telemetry.Set { return lc.Tel }

// TaskResult is the outcome of one aggregation task.
type TaskResult struct {
	Result core.Result
	// Elapsed is the virtual time from submission to completion.
	Elapsed sim.Time
	// Recv holds the receiver-side counters.
	Recv hostd.RecvTaskStats
	// Switch holds the switch-side counters for the task, summed over
	// every switch that may have aggregated it.
	Switch switchd.TaskStats
	// Degraded is the longest time any participating daemon spent in
	// degraded (host-only) mode while the task ran; zero on a fault-free
	// run or when Config.Failover is off.
	Degraded time.Duration
}

// Aggregate runs one complete aggregation task to completion: the receiver
// submits the task, each sender streams its tuples, and the merged result
// is returned once every FIN is in and switch state is fetched. It blocks
// until the virtual cluster quiesces. Setup errors are returned as from
// StartTask, task-execution errors as from Get.
func (lc *lifecycle) Aggregate(spec core.TaskSpec, streams map[core.HostID]core.Stream) (*TaskResult, error) {
	return lc.run(lc.StartTask(spec, streams))
}

// AggregateTimed runs one aggregation task whose sender streams carry
// arrival timestamps: each daemon consumes its stream on the sim clock —
// tuples enter the packetizer at their arrival offsets, partial packets
// flush on lulls — so the task experiences the trace's temporal shape
// (bursts, diurnal cycles, idle gaps) instead of back-to-back pressure.
// Its error behaviour matches Aggregate.
func (lc *lifecycle) AggregateTimed(spec core.TaskSpec, streams map[core.HostID]core.TimedStream) (*TaskResult, error) {
	return lc.run(lc.StartTaskTimed(spec, streams))
}

func (lc *lifecycle) run(pt *PendingTask, err error) (*TaskResult, error) {
	if err != nil {
		return nil, err
	}
	lc.Sim.Run(0)
	return pt.Get()
}

// PendingTask is a task started with StartTask whose result becomes
// available after the simulation runs.
type PendingTask struct {
	spec   core.TaskSpec
	start  sim.Time
	result *TaskResult
	err    error
}

// StartTask submits a task and its sender streams without running the
// simulation, so several tasks can run concurrently; call Sim.Run(0) (or
// Aggregate another task) and then Get. It returns an error when the spec
// has no senders, names hosts outside the cluster, or a sender has no
// stream, checked in that order; on tenant-partitioned fabrics admission
// rejections (match with errors.As against *tenancy.OverloadError) surface
// from Get. Errors from the task's execution surface from Get too.
func (lc *lifecycle) StartTask(spec core.TaskSpec, streams map[core.HostID]core.Stream) (*PendingTask, error) {
	has := func(h core.HostID) bool { _, ok := streams[h]; return ok }
	submit := func(d *hostd.Daemon, h core.HostID) { d.SubmitSend(spec.ID, streams[h]) }
	return lc.startTask(spec, has, submit)
}

// StartTaskTimed is StartTask for timed sender streams (see
// AggregateTimed); its error behaviour matches StartTask.
func (lc *lifecycle) StartTaskTimed(spec core.TaskSpec, streams map[core.HostID]core.TimedStream) (*PendingTask, error) {
	has := func(h core.HostID) bool { _, ok := streams[h]; return ok }
	submit := func(d *hostd.Daemon, h core.HostID) { d.SubmitSendTimed(spec.ID, streams[h]) }
	return lc.startTask(spec, has, submit)
}

func (lc *lifecycle) startTask(spec core.TaskSpec, hasStream func(core.HostID) bool, submit func(*hostd.Daemon, core.HostID)) (*PendingTask, error) {
	if len(spec.Senders) == 0 {
		return nil, fmt.Errorf("ask: task %d has no senders", spec.ID)
	}
	recv, ok := lc.daemons[spec.Receiver]
	if !ok {
		return nil, fmt.Errorf("ask: receiver host %d not in cluster", spec.Receiver)
	}
	for _, s := range spec.Senders {
		if _, ok := lc.daemons[s]; !ok {
			return nil, fmt.Errorf("ask: sender host %d not in cluster", s)
		}
		if !hasStream(s) {
			return nil, fmt.Errorf("ask: no stream for sender host %d", s)
		}
	}
	pt := &PendingTask{spec: spec, start: lc.Sim.Now()}
	lc.taskStarted()
	lc.Sim.Spawn(fmt.Sprintf("driver-task%d", spec.ID), func(p *sim.Proc) {
		defer lc.taskFinished()
		h, err := recv.Submit(p, spec)
		if err != nil {
			pt.err = err
			return
		}
		// Deterministic sender start order.
		senders := append([]core.HostID(nil), spec.Senders...)
		sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
		for _, s := range senders {
			submit(lc.daemons[s], s)
		}
		result := h.Wait(p)
		var degraded time.Duration
		for _, hid := range append([]core.HostID{spec.Receiver}, senders...) {
			if dt := lc.daemons[hid].FailoverStats().DegradedTime; dt > degraded {
				degraded = dt
			}
		}
		// A region revocation degrades only the task, not the daemon.
		if dt := h.Stats().Degraded; dt > degraded {
			degraded = dt
		}
		pt.result = &TaskResult{
			Result:   result,
			Elapsed:  p.Now() - pt.start,
			Recv:     h.Stats(),
			Switch:   lc.switchStats(spec),
			Degraded: degraded,
		}
	})
	return pt, nil
}

func (lc *lifecycle) taskStarted() {
	lc.activeTasks++
	if lc.activeTasks == 1 && lc.sampler != nil {
		lc.sampler.Start()
	}
}

func (lc *lifecycle) taskFinished() {
	lc.activeTasks--
	if lc.activeTasks == 0 && lc.sampler != nil {
		lc.sampler.Stop()
	}
}

// Get returns the task outcome; it errors if the task has not completed.
func (pt *PendingTask) Get() (*TaskResult, error) {
	if pt.err != nil {
		return nil, pt.err
	}
	if pt.result == nil {
		return nil, fmt.Errorf("ask: task %d did not complete (run the simulation to quiescence)", pt.spec.ID)
	}
	return pt.result, nil
}

package ask

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// MultiRackOptions configures the §7 multi-rack deployment: several racks,
// each with its own ASK switch on the TOR, joined by a forwarding core.
type MultiRackOptions struct {
	Racks        int
	HostsPerRack int
	Config       core.Config
	// HostLink configures host↔TOR links, CoreLink the TOR↔core links.
	HostLink netsim.LinkConfig
	CoreLink netsim.LinkConfig
	Cores    int
	Seed     int64
	// Switch sizes each TOR's state tables; MaxFlows bounds only that
	// rack's channels (the state-explosion containment of §7).
	Switch switchd.Options
	// Shards, when > 1, partitions the fabric into that many parallel event
	// lanes of contiguous racks (DESIGN.md "Parallel DES"): each rack's TOR,
	// hosts and local links run on a lane goroutine, synchronized at
	// conservative lookahead windows over the TOR↔core cuts. Results are
	// byte-identical to the serial build. Values <= 1, or more shards than
	// racks worth of parallelism, clamp toward serial (netsim.EffectiveShards);
	// Shards <= 1 takes the exact serial code path.
	Shards int
}

// MultiRackCluster is a two-tier deployment. Aggregation tasks get
// in-network aggregation from the receiver's TOR for rack-local senders;
// cross-rack traffic bypasses the receiver's TOR and is aggregated at the
// receiver host (§7), so no TOR ever holds state for another rack's
// channels.
type MultiRackCluster struct {
	Sim  *sim.Simulation
	Net  *netsim.TwoTier
	TORs []*switchd.Switch

	opts    MultiRackOptions
	daemons map[core.HostID]*hostd.Daemon
	cpus    map[core.HostID]*cpumodel.Host
}

// HostAt returns the host ID of slot i in rack r.
func (o MultiRackOptions) HostAt(r, i int) core.HostID {
	return core.HostID(r*o.HostsPerRack + i)
}

// NewMultiRackCluster builds the deployment. Host IDs are assigned
// rack-major: rack r holds IDs [r·HostsPerRack, (r+1)·HostsPerRack). It
// returns an error only for invalid options (non-positive Racks or
// HostsPerRack, or a Config the switches or daemons reject).
func NewMultiRackCluster(opts MultiRackOptions) (*MultiRackCluster, error) {
	if opts.Racks <= 0 || opts.HostsPerRack <= 0 {
		return nil, fmt.Errorf("ask: need positive Racks and HostsPerRack")
	}
	if opts.Config.NumAAs == 0 {
		opts.Config = core.DefaultConfig()
	}
	if opts.HostLink.BandwidthBps == 0 {
		opts.HostLink = netsim.DefaultLinkConfig()
	}
	if opts.CoreLink.BandwidthBps == 0 {
		opts.CoreLink = netsim.DefaultLinkConfig()
	}
	if opts.Cores == 0 {
		opts.Cores = cpumodel.DefaultCores
	}
	if opts.Switch.MaxFlows == 0 {
		opts.Switch = switchd.DefaultOptions()
	}
	s := sim.New(opts.Seed)
	tt, _ := netsim.NewTwoTierSharded(s, opts.Racks, opts.Shards, opts.HostLink, opts.CoreLink)
	tt.SetCodec(wire.NewCodec(opts.Config.KPartBytes))
	mc := &MultiRackCluster{
		Sim:     s,
		Net:     tt,
		opts:    opts,
		daemons: make(map[core.HostID]*hostd.Daemon),
		cpus:    make(map[core.HostID]*cpumodel.Host),
	}
	for r := 0; r < opts.Racks; r++ {
		// RackSim is the rack's shard lane for a sharded build and the
		// fabric-wide simulation otherwise; every piece of rack-local state
		// (TOR program, host CPUs, daemons) schedules only there.
		sw, err := switchd.New(tt.RackSim(r), tt.TOR(r), opts.Config, opts.Switch)
		if err != nil {
			return nil, fmt.Errorf("ask: rack %d TOR: %w", r, err)
		}
		mc.TORs = append(mc.TORs, sw)
	}
	for r := 0; r < opts.Racks; r++ {
		for i := 0; i < opts.HostsPerRack; i++ {
			id := opts.HostAt(r, i)
			cpu := cpumodel.NewHost(tt.RackSim(r), opts.Cores)
			// Each daemon's control plane is its own rack's TOR: channels
			// register there, and a receiver allocates its task region
			// there — never on a remote TOR. That same locality is what
			// makes the sharded build race-free without rendezvous: no
			// control call ever crosses a lane.
			// Zero telemetry sink: multi-rack daemons keep private
			// registries (per-host/per-task label sets would collide on
			// a shared registry across TORs).
			d, err := hostd.New(tt.RackSim(r), rackFabric{tt, r}, cpu, opts.Config, id, controllerAdapter{mc.TORs[r]}, telemetry.Sink{})
			if err != nil {
				return nil, err
			}
			mc.daemons[id] = d
			mc.cpus[id] = cpu
		}
	}
	return mc, nil
}

// rackFabric narrows the two-tier fabric to one rack's host attach point.
type rackFabric struct {
	tt   *netsim.TwoTier
	rack int
}

func (rf rackFabric) AttachHost(id core.HostID, h netsim.HostHandler) {
	rf.tt.AttachHostRack(rf.rack, id, h)
}
func (rf rackFabric) HostSend(f *netsim.Frame)           { rf.tt.HostSend(f) }
func (rf rackFabric) Uplink(id core.HostID) *netsim.Link { return rf.tt.Uplink(id) }

// Daemon returns a host's daemon.
func (mc *MultiRackCluster) Daemon(h core.HostID) *hostd.Daemon { return mc.daemons[h] }

// CPU returns a host's CPU model.
func (mc *MultiRackCluster) CPU(h core.HostID) *cpumodel.Host { return mc.cpus[h] }

// ReceiverTOR returns the switch that serves a task at the given receiver.
func (mc *MultiRackCluster) ReceiverTOR(receiver core.HostID) *switchd.Switch {
	return mc.TORs[mc.Net.RackOf(receiver)]
}

// Aggregate runs one task to completion, exactly as Cluster.Aggregate but
// on the two-tier fabric: rack-local senders are aggregated at the
// receiver's TOR, remote senders at the receiver host. It returns an
// error when the spec has no senders, names hosts outside the cluster, or
// a sender has no stream, and propagates task-execution errors unchanged.
func (mc *MultiRackCluster) Aggregate(spec core.TaskSpec, streams map[core.HostID]core.Stream) (*TaskResult, error) {
	recv, ok := mc.daemons[spec.Receiver]
	if !ok {
		return nil, fmt.Errorf("ask: receiver host %d not in cluster", spec.Receiver)
	}
	if len(spec.Senders) == 0 {
		return nil, fmt.Errorf("ask: task %d has no senders", spec.ID)
	}
	for _, s := range spec.Senders {
		if _, ok := mc.daemons[s]; !ok {
			return nil, fmt.Errorf("ask: sender host %d not in cluster", s)
		}
		if _, ok := streams[s]; !ok {
			return nil, fmt.Errorf("ask: no stream for sender host %d", s)
		}
	}
	var result *TaskResult
	var err error
	start := mc.Sim.Now()
	mc.Sim.Spawn(fmt.Sprintf("mr-driver-task%d", spec.ID), func(p *sim.Proc) {
		h, e := recv.Submit(p, spec)
		if e != nil {
			err = e
			return
		}
		senders := append([]core.HostID(nil), spec.Senders...)
		sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
		for _, s := range senders {
			mc.daemons[s].SubmitSend(spec.ID, streams[s])
		}
		res := h.Wait(p)
		result = &TaskResult{
			Result:  res,
			Elapsed: p.Now() - start,
			Recv:    h.Stats(),
			Switch:  *mc.ReceiverTOR(spec.Receiver).TaskStatsOf(spec.ID),
		}
	})
	mc.Sim.Run(0)
	if err != nil {
		return nil, err
	}
	if result == nil {
		return nil, fmt.Errorf("ask: task %d did not complete", spec.ID)
	}
	return result, nil
}

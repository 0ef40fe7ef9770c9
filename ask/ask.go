// Package ask is the public API of the ASK reproduction: a switch–host
// co-designed in-network aggregation service for key-value streams
// (He et al., "A Generic Service to Provide In-Network Aggregation for
// Key-Value Streams", ASPLOS 2023).
//
// A Cluster wires together the simulated substrate — a virtual-time kernel,
// a single-switch 100 Gbps network, a PISA-constrained ASK switch program,
// and one host daemon per server — behind a small surface:
//
//	cl, _ := ask.NewCluster(ask.Options{Hosts: 4})
//	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2, 3}}
//	res, _ := cl.Aggregate(spec, map[core.HostID]core.Stream{
//	    1: core.SliceStream(streamA),
//	    2: core.SliceStream(streamB),
//	    3: core.SliceStream(streamC),
//	})
//
// Aggregate runs the full protocol of the paper: task setup over the control
// channel, multi-key vectorized switch aggregation, sliding-window
// reliability, shadow-copy hot-key prioritization, FIN-driven teardown, and
// the switch-state fetch/merge — returning the exact aggregation of all
// streams. Everything executes on deterministic virtual time, so results
// and performance measurements are reproducible for a given Seed.
package ask

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// Hosts is the number of servers (host IDs 0..Hosts-1).
	Hosts int
	// Config is the ASK deployment configuration (zero value: the paper's
	// defaults via core.DefaultConfig).
	Config core.Config
	// Link configures every host's link (zero value: 100 Gbps, 1 µs).
	Link netsim.LinkConfig
	// Cores is the per-host core count (zero: the paper's 56).
	Cores int
	// Seed drives all randomness (fault injection); runs with equal seeds
	// are identical.
	Seed int64
	// Switch sizes the switch state tables (zero value: defaults).
	Switch switchd.Options
	// Telemetry enables the cluster-wide observability stack: a shared
	// metrics registry across switch, daemons, transport windows and
	// network, a sim-clock trace ring, and a gauge sampler that runs while
	// tasks are active. Zero value: disabled (components fall back to
	// private registries so Stats accessors still work).
	Telemetry telemetry.Config
}

// Cluster is a simulated rack running the ASK service. A rack has one
// switch and so no partition boundary: it always runs the serial
// scheduler.
type Cluster struct {
	lifecycle
	Net    *netsim.Network
	Switch *switchd.Switch
}

// controllerAdapter narrows switchd.Switch to the hostd.Controller surface.
type controllerAdapter struct{ sw *switchd.Switch }

func (c controllerAdapter) RegisterFlow(fk core.FlowKey) (uint32, error) {
	if _, err := c.sw.RegisterFlow(fk); err != nil {
		return 0, err
	}
	// The control plane is synchronous in the simulation, so the epoch read
	// here is exactly the incarnation the registration landed on.
	return c.sw.Epoch(), nil
}

func (c controllerAdapter) RegisterFlowAt(fk core.FlowKey, start uint32) (uint32, error) {
	if _, err := c.sw.RegisterFlowAt(fk, start); err != nil {
		return 0, err
	}
	return c.sw.Epoch(), nil
}

func (c controllerAdapter) AllocRegion(spec core.TaskSpec) (hostd.AllocInfo, error) {
	_, err := c.sw.AllocRegion(spec.ID, spec.Receiver, spec.Op, spec.Rows)
	return hostd.AllocInfo{}, err
}

func (c controllerAdapter) FreeRegion(task core.TaskID) error { return c.sw.FreeRegion(task) }

// NewCluster builds a rack: one ASK switch and Hosts servers, each running
// a host daemon with Config.DataChannels persistent channels. It returns
// an error only for invalid options (non-positive Hosts, a Config the
// switch or daemons reject).
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Hosts <= 0 {
		return nil, fmt.Errorf("ask: Hosts must be positive")
	}
	setDefaults(&opts.Config, &opts.Cores, &opts.Switch, &opts.Link)
	s := sim.New(opts.Seed)
	tel := telemetry.NewSet(s, opts.Telemetry)
	sink := tel.Sink()
	n := netsim.New(s, opts.Link)
	n.Instrument(sink)
	// Hand links the byte codec so the corruption fault path can deliver
	// real damaged bytes (never SkipVerify here — the on-wire encoding is
	// always checksummed; verification policy lives at the receivers).
	n.SetCodec(wire.NewCodec(opts.Config.KPartBytes))
	swOpts := opts.Switch
	swOpts.Telemetry = sink
	sw, err := switchd.New(s, n, opts.Config, swOpts)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{lifecycle: newLifecycle(s, opts.Config), Net: n, Switch: sw}
	cl.Tel = tel
	if tel != nil {
		cl.sampler = tel.Sampler
	}
	cl.switchStats = func(spec core.TaskSpec) switchd.TaskStats { return *sw.TaskStatsOf(spec.ID) }
	for h := 0; h < opts.Hosts; h++ {
		if _, err := cl.addHost(s, n, core.HostID(h), opts.Cores, controllerAdapter{sw}, sink); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// TheSwitch is the fabric address of the rack's only switch for the
// addressed fault-injection surface (chaos.Fabric): rack deployments have a
// single switch, and it answers to address 0. Fat-tree switches use the
// netsim.LeafAddr/SpineAddr range instead.
const TheSwitch core.HostID = 0

// CrashSwitch crashes the rack's switch: every frame black-holes until
// RebootSwitch. The only valid address is TheSwitch (0) — any other addr
// returns an error, since the rack has exactly one switch.
func (c *Cluster) CrashSwitch(addr core.HostID) error { return c.atSwitch(addr, c.Switch.Crash) }

// RebootSwitch reboots the rack's switch as a fresh incarnation (state
// wiped, epoch advanced). Like CrashSwitch it returns an error for any
// address other than TheSwitch.
func (c *Cluster) RebootSwitch(addr core.HostID) error { return c.atSwitch(addr, c.Switch.Reboot) }

func (c *Cluster) atSwitch(addr core.HostID, op func()) error {
	if addr != TheSwitch {
		return fmt.Errorf("ask: rack has no switch at fabric address %#x", addr)
	}
	op()
	return nil
}

// HostUplink returns a host's uplink to the switch (fault injection, stats).
func (c *Cluster) HostUplink(h core.HostID) *netsim.Link { return c.Net.Uplink(h) }

// HostDownlink returns a host's downlink from the switch.
func (c *Cluster) HostDownlink(h core.HostID) *netsim.Link { return c.Net.Downlink(h) }

// RevokeRegion mimics the controller reclaiming a task's aggregator rows
// mid-flight (e.g. to make room for a higher-priority tenant): the switch
// stops aggregating for the task immediately, and after one control-RPC
// latency the receiver daemon learns of the revocation, drains the absorbed
// state, and continues host-only. Requires Config.Failover: it returns an
// error when failover is disabled or the receiver daemon is unknown.
func (c *Cluster) RevokeRegion(task core.TaskID, receiver core.HostID) error {
	if !c.cfg.Failover {
		return fmt.Errorf("ask: RevokeRegion requires Config.Failover")
	}
	d, ok := c.daemons[receiver]
	if !ok {
		return fmt.Errorf("ask: receiver host %d not in cluster", receiver)
	}
	if err := c.Switch.RevokeRegion(task); err != nil {
		return err
	}
	c.Sim.After(cpumodel.ControlRPCLatency, func() { d.OnRegionRevoked(task) })
	return nil
}

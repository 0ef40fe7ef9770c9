package chaos

// Chaos soak: seeded random-walk fault schedules over full end-to-end
// aggregation runs, with an invariant harness and a shrinker, for every
// deployment preset.
//
// A soak run is three deterministic steps:
//
//  1. GenerateSchedule draws a fault script from a seeded PRNG, with event
//     times expressed in thousandths of the fault-free task duration so
//     the same schedule lands mid-task at any workload size.
//  2. RunSchedule replays the script against a fresh cluster and checks
//     conservation (every task's result equals its analytic per-key ground
//     truth) plus the preset's invariant set.
//  3. On violation, ShrinkWith re-runs prefixes and single-event elisions
//     of the schedule until no event can be removed without the failure
//     disappearing, and the Report prints the minimal schedule plus a
//     one-line reproducer (`asksim -soak -soak.seed=N ...`).
//
// A preset supplies only what differs between deployments: its cluster,
// its task plans, its event kinds and targets, and its invariant set.
//
//   - Rack: one switch and one task from Senders hosts to host 0, under
//     switch outages, link black-holes, loss/duplication, corruption
//     bursts and host stalls.
//   - FatTree: a multi-tenant spine/leaf fabric with one fabric-spanning
//     task per tenant, under addressed spine and leaf outages, black-holes
//     and corruption bursts.
//   - Isolation: a multi-tenant fat-tree with bounded retries whose only
//     faults black-hole the victim tenant's sender; the victim may bridge
//     the holes or abort cleanly, every other tenant must stay exact.
//
// Everything is derived from Config.Seed — the workload, the schedule, the
// link-fault RNG — so a reproducer seed replays the exact failure. The
// harness itself is deterministic: no wall clock, no global randomness
// (simdeterminism-checked). A preset's schedule draw is part of that
// contract: changing which PRNG calls it makes reshuffles every seed.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// Preset selects the deployment a soak runs on.
type Preset int

const (
	// Rack soaks the single-switch rack (ask.Cluster).
	Rack Preset = iota
	// FatTree soaks the multi-tenant spine/leaf fabric
	// (ask.FatTreeCluster) with fabric-wide failover.
	FatTree
	// Isolation soaks tenant isolation on the fat-tree: tenant 1 is the
	// victim whose sender gets black-holed past the retry budget.
	Isolation
)

func (p Preset) String() string {
	switch p {
	case Rack:
		return "rack"
	case FatTree:
		return "fat-tree"
	case Isolation:
		return "isolation"
	}
	return fmt.Sprintf("Preset(%d)", int(p))
}

// soakKeys is the number of distinct keys in every sender's stream.
const soakKeys = 512

// Config parameterizes one soak. A zero field takes its preset's default;
// a field that does not apply to the preset must stay zero or hold the
// preset's fixed value (as a resolved config does). Two runs with equal
// configs are identical.
type Config struct {
	Preset Preset
	// Seed drives everything: workload contents, schedule generation, and
	// the cluster's fault RNG.
	Seed int64
	// Events is the number of fault events to draw (default 6; 3 on
	// Isolation).
	Events int
	// Tuples per sender (default 30 000 on the rack, 20 000 on the
	// fat-tree presets).
	Tuples int64
	// Base is a fault model applied to every host link for the whole run,
	// on top of the scheduled events — e.g. Fault{CorruptProb: 1e-3} soaks
	// the checksum path continuously.
	Base netsim.Fault

	// Senders is the number of sending hosts on the rack (default 2; the
	// receiver is host 0, so the cluster has Senders+1 hosts).
	Senders int
	// DisableChecksumVerify mirrors core.Config.DisableChecksumVerify into
	// the rack under test: the deliberately broken build the harness must
	// catch. Never set outside tests of the harness itself.
	DisableChecksumVerify bool

	// Spines and Leaves size the FatTree fabric (defaults 2 and 3; the
	// Isolation fabric is a fixed 2x2). Receivers sit on leaf 0 and senders
	// on the other leaves, so every task crosses the spine tier.
	Spines int
	Leaves int
	// Shards, when > 1, runs the FatTree fabric on the conservative parallel
	// scheduler (ask.FatTreeOptions.Shards): the soak then also proves that
	// failover epochs, replay and conservation survive parallel execution
	// and its control rendezvous.
	Shards int

	// Retries bounds per-packet retransmissions on Isolation (default 4):
	// a hole longer than the budget aborts the victim's stream instead of
	// stalling the fabric forever.
	Retries int
}

// resolve validates c and fills in its preset's defaults.
func (c Config) resolve() (Config, error) {
	if c.Preset < Rack || c.Preset > Isolation {
		return c, fmt.Errorf("chaos: unknown soak preset %v", c.Preset)
	}
	d := presets[c.Preset].defaults
	set := func(v, fixed int) bool { return v != 0 && v != fixed }
	const rack, fatTree, isolation = 1 << Rack, 1 << FatTree, 1 << Isolation
	for _, f := range []struct {
		name string
		set  bool
		on   int // bit set of the presets the field applies to
	}{
		{"Senders", set(c.Senders, d.Senders), rack},
		{"DisableChecksumVerify", c.DisableChecksumVerify, rack},
		{"Spines", set(c.Spines, d.Spines), fatTree},
		{"Leaves", set(c.Leaves, d.Leaves), fatTree},
		{"Shards", set(c.Shards, 0), fatTree},
		{"Retries", set(c.Retries, d.Retries), isolation},
	} {
		if f.set && f.on&(1<<c.Preset) == 0 {
			return c, fmt.Errorf("chaos: %s does not apply to the %v soak", f.name, c.Preset)
		}
	}
	orDefault(&c.Events, d.Events)
	orDefault(&c.Tuples, d.Tuples)
	orDefault(&c.Senders, d.Senders)
	orDefault(&c.Spines, d.Spines)
	orDefault(&c.Leaves, d.Leaves)
	orDefault(&c.Retries, d.Retries)
	return c, nil
}

func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// preset is what one deployment contributes to the shared soak runner.
type preset struct {
	// name prefixes every report line ("soak seed=1 PASS: ...").
	name     string
	defaults Config
	build    func(cfg Config) (Fabric, error)
	// switches lists the cluster's switches, for the evidence counters.
	switches func(f Fabric) []*switchd.Switch
	plans    func(cfg Config) []plan
	draw     func(cfg Config) draw
	// wholeWindow heals each fault at the scaled end of its window,
	// at(start+dur), instead of at(start)+at(dur) — up to 1 ns later. It is
	// the isolation soak's timing, which every old isolation seed replays.
	wholeWindow bool
	// invariants run, in order, after every task passed conservation.
	invariants []invariant
	// summary is a passing report's text after "PASS: ".
	summary func(r Report) string
}

var presets = [...]preset{
	Rack: {
		name:     "soak",
		defaults: Config{Events: 6, Tuples: 30_000, Senders: 2},
		build:    buildRack,
		switches: func(f Fabric) []*switchd.Switch { return []*switchd.Switch{f.(*ask.Cluster).Switch} },
		plans:    rackPlans,
		draw: func(cfg Config) draw {
			d := draw{
				kinds: []EventKind{EvSwitchOutage, EvLinkBlackhole, EvLinkDegrade, EvCorruptBurst, EvHostStall},
				start: 50, startSpan: 850, dur: 50, durSpan: 200,
			}
			for h := 1; h <= cfg.Senders; h++ {
				d.hosts = append(d.hosts, core.HostID(h))
			}
			return d
		},
		invariants: []invariant{recovered, rackEpochsCoherent, transportSane},
		summary: func(r Report) string {
			return fmt.Sprintf("%d events over %v, elapsed %v\n", len(r.Schedule), r.Scale, r.Outcome.Elapsed) + r.evidence()
		},
	},
	FatTree: {
		name:     "fabric soak",
		defaults: Config{Events: 6, Tuples: 20_000, Spines: 2, Leaves: 3},
		build:    buildFatTree,
		switches: fatTreeSwitches,
		plans: func(cfg Config) []plan {
			return tenantPlans(cfg, func(i, l int) int64 { return int64(i*cfg.Leaves + l) })
		},
		draw: func(cfg Config) draw {
			d := draw{
				kinds: []EventKind{EvSpineOutage, EvLeafOutage, EvLinkBlackhole, EvCorruptBurst},
				start: 50, startSpan: 850, dur: 50, durSpan: 200,
			}
			for l := 1; l < cfg.Leaves; l++ {
				for i := 0; i < cfg.tenants(); i++ {
					d.hosts = append(d.hosts, hostAt(cfg, l, i))
				}
			}
			return d
		},
		invariants: []invariant{recovered, fabricEpochsCoherent, transportSane},
		summary: func(r Report) string {
			return fmt.Sprintf("%d events over %v (%d spines, %d leaves, %d tenants), elapsed %v\n",
				len(r.Schedule), r.Scale, r.Cfg.Spines, r.Cfg.Leaves, r.Cfg.tenants(), r.Outcome.Elapsed) + r.evidence()
		},
	},
	Isolation: {
		name:        "tenant soak",
		defaults:    Config{Events: 3, Tuples: 20_000, Spines: 2, Leaves: 2, Retries: 4},
		build:       buildFatTree,
		switches:    fatTreeSwitches,
		wholeWindow: true,
		plans: func(cfg Config) []plan {
			plans := tenantPlans(cfg, func(i, _ int) int64 { return int64(i) })
			plans[0].victim = true
			plans[0].label = "victim tenant 1 "
			for i := 1; i < len(plans); i++ {
				plans[i].label = fmt.Sprintf("tenant %d (not the victim) ", i+1)
			}
			return plans
		},
		// Long holes against the retry budget, so mid-stream holes
		// genuinely kill the victim's flow.
		draw: func(cfg Config) draw {
			return draw{
				kinds: []EventKind{EvLinkBlackhole},
				start: 100, startSpan: 700, dur: 100, durSpan: 200,
				target: hostAt(cfg, 1, 0),
			}
		},
		invariants: []invariant{othersAbortFree},
		summary: func(r Report) string {
			verdict := "victim bridged the holes"
			if r.Outcome.VictimAborted {
				verdict = "victim aborted cleanly"
			}
			return fmt.Sprintf("%d black-hole windows over %v, %s, others exact (slowest %v)\n",
				len(r.Schedule), r.Scale, verdict, r.Outcome.Elapsed)
		},
	},
}

// coreConfig is the ASK configuration a soak runs under. The failover
// presets turn failover on (outages must not deadlock), shadow copies off
// (failover replay cannot attribute swap fetches) and retries unbounded
// (an outage must be bridged: an abort is an invariant violation, not a
// scripted outcome). Isolation keeps the defaults but bounds retries.
func coreConfig(cfg Config) core.Config {
	c := core.DefaultConfig()
	c.DisableChecksumVerify = cfg.DisableChecksumVerify
	if cfg.Preset == Isolation {
		c.MaxRetries = cfg.Retries
		return c
	}
	c.ShadowCopy = false
	c.Failover = true
	c.MaxRetries = 0
	return c
}

func buildRack(cfg Config) (Fabric, error) {
	link := netsim.DefaultLinkConfig()
	link.Fault = cfg.Base
	return ask.NewCluster(ask.Options{Hosts: cfg.Senders + 1, Config: coreConfig(cfg), Link: link, Seed: cfg.Seed})
}

func buildFatTree(cfg Config) (Fabric, error) {
	link := netsim.DefaultLinkConfig()
	link.Fault = cfg.Base
	opts := ask.FatTreeOptions{
		Spines: cfg.Spines, Leaves: cfg.Leaves, HostsPerLeaf: cfg.tenants(),
		Config: coreConfig(cfg), HostLink: link, Seed: cfg.Seed, Shards: cfg.Shards,
	}
	for i := 0; i < cfg.tenants(); i++ {
		opts.Tenants = append(opts.Tenants, tenancy.TenantSpec{ID: core.TenantID(i + 1), Weight: 1})
	}
	return ask.NewFatTreeCluster(opts)
}

func fatTreeSwitches(f Fabric) []*switchd.Switch {
	fc := f.(*ask.FatTreeCluster)
	return append(append([]*switchd.Switch(nil), fc.Leaves...), fc.Spines...)
}

// tenants is the number of concurrent tenants on a fat-tree preset (2; 3
// on Isolation), each with weight 1, one host per leaf and one task.
func (c Config) tenants() int {
	if c.Preset == Isolation {
		return 3
	}
	return 2
}

// hostAt is the host in slot i of fat-tree leaf l (one slot per tenant).
func hostAt(cfg Config, l, i int) core.HostID { return core.HostID(l*cfg.tenants() + i) }

// hosts lists every host of cfg's cluster, in ID order.
func (c Config) hosts() []core.HostID {
	n := c.Leaves * c.tenants()
	if c.Preset == Rack {
		n = c.Senders + 1
	}
	hs := make([]core.HostID, n)
	for i := range hs {
		hs[i] = core.HostID(i)
	}
	return hs
}

// plan is one task of a soak: its spec and streams, and the ground truth
// its conservation check uses, computed host-side from the workload spec,
// never from a cluster run, so a broken datapath cannot contaminate it.
type plan struct {
	// label prefixes the task's violations ("" on the rack, "tenant N ").
	label string
	// victim marks the isolation soak's black-holed tenant, which may
	// abort instead of completing.
	victim  bool
	spec    core.TaskSpec
	streams map[core.HostID]core.Stream
	want    core.Result
}

func rackPlans(cfg Config) []plan {
	pl := plan{
		spec:    core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum},
		streams: make(map[core.HostID]core.Stream),
		want:    make(core.Result),
	}
	for i := 0; i < cfg.Senders; i++ {
		h := core.HostID(i + 1)
		pl.spec.Senders = append(pl.spec.Senders, h)
		w := workload.Uniform(soakKeys, cfg.Tuples, cfg.Seed+int64(h))
		pl.streams[h] = w.Stream()
		pl.want.Merge(w.Reference(core.OpSum), core.OpSum)
	}
	return []plan{pl}
}

// tenantPlans gives tenant i+1 a task receiving on slot i of leaf 0 and
// sending from slot i of every other leaf; the stream from leaf l is
// seeded cfg.Seed+seed(i, l).
func tenantPlans(cfg Config, seed func(i, l int) int64) []plan {
	plans := make([]plan, 0, cfg.tenants())
	for i := 0; i < cfg.tenants(); i++ {
		tn := core.TenantID(i + 1)
		pl := plan{
			label:   fmt.Sprintf("tenant %d ", tn),
			streams: make(map[core.HostID]core.Stream),
			want:    make(core.Result),
			spec: core.TaskSpec{
				ID:       core.MakeTaskID(tn, uint32(i+1)),
				Receiver: hostAt(cfg, 0, i),
				Op:       core.OpSum,
			},
		}
		for l := 1; l < cfg.Leaves; l++ {
			h := hostAt(cfg, l, i)
			pl.spec.Senders = append(pl.spec.Senders, h)
			w := workload.Uniform(soakKeys, cfg.Tuples, cfg.Seed+seed(i, l))
			pl.streams[h] = w.Stream()
			pl.want.Merge(w.Reference(core.OpSum), core.OpSum)
		}
		plans = append(plans, pl)
	}
	return plans
}

// EventKind enumerates the fault types a schedule can contain.
type EventKind int

const (
	EvSwitchOutage EventKind = iota
	EvLinkBlackhole
	EvLinkDegrade
	EvCorruptBurst
	EvHostStall
	// EvSpineOutage / EvLeafOutage crash-and-reboot one addressed fat-tree
	// switch (Event.Addr). Only the fat-tree preset draws them.
	EvSpineOutage
	EvLeafOutage
)

func (k EventKind) String() string {
	switch k {
	case EvSwitchOutage:
		return "switch-outage"
	case EvLinkBlackhole:
		return "link-blackhole"
	case EvLinkDegrade:
		return "link-degrade"
	case EvCorruptBurst:
		return "corrupt-burst"
	case EvHostStall:
		return "host-stall"
	case EvSpineOutage:
		return "spine-outage"
	case EvLeafOutage:
		return "leaf-outage"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one scheduled fault. Times are in thousandths of the timing
// scale (the fault-free task duration), so schedules are workload-size
// independent.
type Event struct {
	Kind     EventKind
	StartMil int64 // start, in 1/1000 of scale
	DurMil   int64 // duration, in 1/1000 of scale
	// Host is the target of link and stall faults (unused for switch
	// outages).
	Host core.HostID
	// Addr is the fabric address of the switch an EvSpineOutage /
	// EvLeafOutage targets (unused for the rack's EvSwitchOutage, which
	// always hits ask.TheSwitch).
	Addr core.HostID
	// Fault is the override model for EvLinkDegrade / EvCorruptBurst.
	Fault netsim.Fault
}

func (e Event) String() string {
	s := fmt.Sprintf("%-14s t=[%4d,%4d)millis-of-scale", e.Kind, e.StartMil, e.StartMil+e.DurMil)
	switch e.Kind {
	case EvSwitchOutage:
		return s
	case EvSpineOutage, EvLeafOutage:
		return fmt.Sprintf("%s addr=%#x", s, uint16(e.Addr))
	case EvLinkDegrade:
		return fmt.Sprintf("%s host=%d loss=%.3f dup=%.3f", s, e.Host, e.Fault.LossProb, e.Fault.DupProb)
	case EvCorruptBurst:
		return fmt.Sprintf("%s host=%d corrupt=%.4f truncate=%.4f", s, e.Host, e.Fault.CorruptProb, e.Fault.TruncateProb)
	default:
		return fmt.Sprintf("%s host=%d", s, e.Host)
	}
}

// Schedule is an ordered fault script.
type Schedule []Event

// apply installs every event on the orchestrator, mapping the millis-of-
// scale timeline onto virtual time. Each fault heals at at(start)+at(dur),
// or with wholeWindow at at(start+dur).
func (s Schedule) apply(o *Orchestrator, scale time.Duration, wholeWindow bool) {
	at := func(mil int64) time.Duration { return scale * time.Duration(mil) / 1000 }
	for _, ev := range s {
		start, dur := at(ev.StartMil), at(ev.DurMil)
		if wholeWindow {
			dur = at(ev.StartMil+ev.DurMil) - start
		}
		switch ev.Kind {
		case EvSwitchOutage:
			o.SwitchOutage(ask.TheSwitch, start, dur)
		case EvSpineOutage, EvLeafOutage:
			o.SwitchOutage(ev.Addr, start, dur)
		case EvLinkBlackhole:
			o.LinkBlackhole(start, dur, ev.Host)
		case EvLinkDegrade, EvCorruptBurst:
			o.LinkDegrade(start, dur, ev.Host, ev.Fault)
		case EvHostStall:
			o.HostStall(start, dur, ev.Host)
		}
	}
}

func (s Schedule) String() string {
	if len(s) == 0 {
		return "  (empty schedule — base config alone fails)"
	}
	var b strings.Builder
	for i, ev := range s {
		fmt.Fprintf(&b, "  [%d] %s\n", i, ev)
	}
	return strings.TrimRight(b.String(), "\n")
}

// overlapsAny reports whether [start, end) intersects any interval in
// ivs, with a separation gap so healing completes before the next fault.
func overlapsAny(ivs [][2]int64, start, end int64) bool {
	const gap = 50
	for _, iv := range ivs {
		if start < iv[1]+gap && iv[0] < end+gap {
			return true
		}
	}
	return false
}

// draw is a preset's schedule distribution. Events start in
// [start, start+startSpan) millis of scale and last [dur, dur+durSpan).
type draw struct {
	// kinds are drawn uniformly; a lone kind is not drawn.
	kinds                          []EventKind
	start, startSpan, dur, durSpan int64
	// hosts are the targets of per-host faults, drawn uniformly; when nil
	// every per-host fault hits target without a draw.
	hosts  []core.HostID
	target core.HostID
}

// GenerateSchedule draws a fault script from cfg.Seed with cfg's preset
// distribution (nil for an invalid config). Constraints keep every draw
// runnable: switch outages never overlap each other, per-host faults never
// overlap on the same host, and only sender hosts are targeted (the
// receivers' links must stay up for the tasks to finish). Every window
// ends before 1150 millis of scale, so every fault heals within the
// script.
func GenerateSchedule(cfg Config) Schedule {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil
	}
	d := presets[cfg.Preset].draw(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sched Schedule
	var outages [][2]int64
	busy := make(map[core.HostID][][2]int64)
	for attempts := 0; len(sched) < cfg.Events && attempts < cfg.Events*64; attempts++ {
		kind := d.kinds[0]
		if len(d.kinds) > 1 {
			kind = d.kinds[rng.Intn(len(d.kinds))]
		}
		start := d.start + rng.Int63n(d.startSpan)
		dur := d.dur + rng.Int63n(d.durSpan)
		ev := Event{Kind: kind, StartMil: start, DurMil: dur}
		switch kind {
		case EvSwitchOutage, EvSpineOutage, EvLeafOutage:
			if kind == EvSpineOutage {
				ev.Addr = netsim.SpineAddr(rng.Intn(cfg.Spines))
			} else if kind == EvLeafOutage {
				ev.Addr = netsim.LeafAddr(rng.Intn(cfg.Leaves))
			}
			if overlapsAny(outages, start, start+dur) {
				continue
			}
			outages = append(outages, [2]int64{start, start + dur})
		default:
			ev.Host = d.target
			if d.hosts != nil {
				ev.Host = d.hosts[rng.Intn(len(d.hosts))]
			}
			if overlapsAny(busy[ev.Host], start, start+dur) {
				continue
			}
			busy[ev.Host] = append(busy[ev.Host], [2]int64{start, start + dur})
			switch kind {
			case EvLinkDegrade:
				ev.Fault = netsim.Fault{
					LossProb: 0.05 + rng.Float64()*0.20,
					DupProb:  rng.Float64() * 0.05,
				}
			case EvCorruptBurst:
				ev.Fault = netsim.Fault{
					CorruptProb:  0.002 + rng.Float64()*0.02,
					TruncateProb: rng.Float64() * 0.004,
				}
			}
		}
		sched = append(sched, ev)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].StartMil < sched[j].StartMil })
	return sched
}

// launch builds cfg's cluster, installs sched on it at the given timing
// scale, and submits every plan's task.
func launch(cfg Config, sched Schedule, scale time.Duration) (Fabric, []plan, []*ask.PendingTask, error) {
	p := presets[cfg.Preset]
	fab, err := p.build(cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cluster build failed: %w", err)
	}
	sched.apply(New(fab), scale, p.wholeWindow)
	plans := p.plans(cfg)
	pending := make([]*ask.PendingTask, len(plans))
	for i, pl := range plans {
		if pending[i], err = fab.StartTask(pl.spec, pl.streams); err != nil {
			return nil, nil, nil, fmt.Errorf("%stask submission failed: %w", pl.label, err)
		}
	}
	return fab, plans, pending, nil
}

// GoldenScale runs cfg's tasks once on a fault-free, verification-enabled
// cluster and returns the slowest task's duration — the timing scale
// schedules are expressed in. It errors if cfg is invalid or even the
// clean run violates conservation (the build is broken beyond what fault
// injection can reveal).
func GoldenScale(cfg Config) (time.Duration, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return 0, err
	}
	cfg.Base, cfg.DisableChecksumVerify = netsim.Fault{}, false
	fab, plans, pending, err := launch(cfg, nil, 0)
	if err != nil {
		return 0, fmt.Errorf("chaos: golden run: %w", err)
	}
	fab.Simulation().Run(0)
	var scale time.Duration
	for i, pl := range plans {
		res, err := pending[i].Get()
		if err != nil {
			return 0, fmt.Errorf("chaos: golden run failed: %w", err)
		}
		if !res.Result.Equal(pl.want) {
			return 0, fmt.Errorf("chaos: golden run violates conservation: %s", res.Result.Diff(pl.want, 5))
		}
		scale = max(scale, time.Duration(res.Elapsed))
	}
	return scale, nil
}

// Outcome is the verdict of one schedule replay.
type Outcome struct {
	// Violation is empty on a clean run, else a one-line description of
	// the first invariant that failed.
	Violation string
	// Elapsed is the slowest checked task's virtual duration (the victim
	// of an isolation soak is not checked).
	Elapsed time.Duration
	// VictimAborted reports whether an isolation soak's victim hit the
	// bounded retry budget (false when the holes were short enough to
	// bridge).
	VictimAborted bool
	// Evidence counters: quarantined frames prove the integrity path was
	// exercised; retransmits and replays prove the reliability path was.
	SwitchCorruptDropped int64
	HostCorruptDropped   int64
	Retransmits          int64
	Replays              int64
}

// OK reports whether every invariant held.
func (o Outcome) OK() bool { return o.Violation == "" }

// run is one replayed schedule at quiescence, for the invariants.
type run struct {
	cfg   Config
	sched Schedule
	fab   Fabric
	plans []plan
}

// invariant returns a one-line violation, or "" when it holds.
type invariant func(r *run) string

// RunSchedule replays one schedule on a fresh cluster and checks the
// invariants. It is deterministic: equal (cfg, sched, scale) triples
// produce equal Outcomes.
func RunSchedule(cfg Config, sched Schedule, scale time.Duration) Outcome {
	cfg, err := cfg.resolve()
	if err != nil {
		return Outcome{Violation: err.Error()}
	}
	fab, plans, pending, err := launch(cfg, sched, scale)
	if err != nil {
		return Outcome{Violation: err.Error()}
	}
	// Run under a virtual-time cap: a broken datapath can livelock (e.g.
	// forged sequence state retransmitting forever), and an uncapped run
	// would never return. Every fault heals by 1.15x scale, so 25x is far
	// beyond any legitimate recovery tail.
	deadline := sim.Time(0).Add(25 * scale)
	end := fab.Simulation().Run(deadline)
	r := &run{cfg: cfg, sched: sched, fab: fab, plans: plans}
	out := r.counters()
	for i, pl := range plans {
		res, err := pending[i].Get()
		if pl.victim {
			// The victim may bridge the holes or abort; a completed victim
			// must still be exact — a partial result would be silent data
			// loss.
			switch {
			case err == nil:
				if !res.Result.Equal(pl.want) {
					out.Violation = fmt.Sprintf("%scompleted with a wrong result: %s", pl.label, res.Result.Diff(pl.want, 5))
				}
			case r.aborts(pl.spec.Senders...) > 0:
				out.VictimAborted = true
			case end >= deadline:
				out.Violation = pl.label + "livelocked to the virtual-time cap"
			default:
				out.Violation = fmt.Sprintf("%sincomplete without a transport abort: %v", pl.label, err)
			}
			if !out.OK() {
				return out
			}
			continue
		}
		switch {
		case err != nil && end >= deadline:
			out.Violation = fmt.Sprintf("%stask still running at virtual-time cap %v (livelock)", pl.label, 25*scale)
		case err != nil:
			// The cluster quiesced with the receiver still waiting.
			out.Violation = fmt.Sprintf("%stask did not complete: %v", pl.label, err)
		case !res.Result.Equal(pl.want):
			// Conservation: every tuple counted once, none lost to faults,
			// none double-counted by retransmission or replay, none
			// fabricated from corrupted bytes.
			out.Violation = fmt.Sprintf("%sconservation violated: %s", pl.label, res.Result.Diff(pl.want, 5))
		}
		if !out.OK() {
			return out
		}
		out.Elapsed = max(out.Elapsed, time.Duration(res.Elapsed))
	}
	for _, inv := range presets[cfg.Preset].invariants {
		if out.Violation = inv(r); !out.OK() {
			return out
		}
	}
	return out
}

// counters tallies the evidence that the fault paths fired.
func (r *run) counters() Outcome {
	var out Outcome
	for _, sw := range presets[r.cfg.Preset].switches(r.fab) {
		out.SwitchCorruptDropped += sw.Stats().CorruptDropped
	}
	for _, h := range r.cfg.hosts() {
		d := r.fab.Daemon(h)
		out.HostCorruptDropped += d.Stats().CorruptDropped
		out.Replays += d.FailoverStats().ReplaysSent
		for _, cs := range d.ChannelStats() {
			out.Retransmits += cs.Retransmits
		}
	}
	return out
}

// aborts counts the transport aborts on the given hosts' channels.
func (r *run) aborts(hosts ...core.HostID) int64 {
	var n int64
	for _, h := range hosts {
		for _, cs := range r.fab.Daemon(h).ChannelStats() {
			n += cs.Aborts
		}
	}
	return n
}

// recovered: every fault healed, so no host may still be degraded once
// the cluster quiesces.
func recovered(r *run) string {
	for _, h := range r.cfg.hosts() {
		if r.fab.Daemon(h).Degraded() {
			return fmt.Sprintf("host %d still degraded at quiescence", h)
		}
	}
	return ""
}

// rackEpochsCoherent: the switch epoch advances once per reboot, and no
// host believes in a future incarnation.
func rackEpochsCoherent(r *run) string {
	sw := r.fab.(*ask.Cluster).Switch
	if got, want := int64(sw.Epoch()), 1+sw.Stats().Reboots; got != want {
		return fmt.Sprintf("switch epoch %d != 1+reboots %d", got, want)
	}
	for _, h := range r.cfg.hosts() {
		if he := r.fab.Daemon(h).Epoch(); he > sw.Epoch() {
			return fmt.Sprintf("host %d epoch %d ahead of switch epoch %d", h, he, sw.Epoch())
		}
	}
	return ""
}

// fabricEpochsCoherent: each switch outage bumps the fabric epoch twice
// (crash and reboot), every switch converges on the final incarnation,
// and no host believes in a future one.
func fabricEpochsCoherent(r *run) string {
	fc := r.fab.(*ask.FatTreeCluster)
	outages := 0
	for _, ev := range r.sched {
		if ev.Kind == EvSpineOutage || ev.Kind == EvLeafOutage {
			outages++
		}
	}
	want := uint32(1 + 2*outages)
	if got := fc.FabricEpoch(); got != want {
		return fmt.Sprintf("fabric epoch %d != 1+2x%d outages = %d", got, outages, want)
	}
	for l, sw := range fc.Leaves {
		if got := sw.Epoch(); got != want {
			return fmt.Sprintf("leaf %d epoch %d != fabric epoch %d", l, got, want)
		}
	}
	for s, sw := range fc.Spines {
		if got := sw.Epoch(); got != want {
			return fmt.Sprintf("spine %d epoch %d != fabric epoch %d", s, got, want)
		}
	}
	for _, h := range r.cfg.hosts() {
		if he := r.fab.Daemon(h).Epoch(); he > want {
			return fmt.Sprintf("host %d epoch %d ahead of fabric epoch %d", h, he, want)
		}
	}
	return ""
}

// transportSane: with an unbounded retry budget no flight may abort, and
// no channel may ACK more than it sent.
func transportSane(r *run) string {
	for _, h := range r.cfg.hosts() {
		for ch, cs := range r.fab.Daemon(h).ChannelStats() {
			if cs.Aborts != 0 {
				return fmt.Sprintf("host %d channel %d aborted %d flights under unbounded retries", h, ch, cs.Aborts)
			}
			if cs.Acked > cs.Sent {
				return fmt.Sprintf("host %d channel %d acked %d > sent %d", h, ch, cs.Acked, cs.Sent)
			}
		}
	}
	return ""
}

// othersAbortFree: the blast radius stops at the tenant boundary, so no
// host of a tenant other than the victim saw a transport abort.
func othersAbortFree(r *run) string {
	for _, pl := range r.plans {
		if pl.victim {
			continue
		}
		if n := r.aborts(append([]core.HostID{pl.spec.Receiver}, pl.spec.Senders...)...); n != 0 {
			return fmt.Sprintf("%ssaw %d transport aborts", pl.label, n)
		}
	}
	return ""
}

// ShrinkWith minimizes a failing schedule against a replay predicate:
// first the empty schedule (the base config alone may fail), then the
// shortest failing prefix, then repeated single-event elision until every
// remaining event is load-bearing. It returns the minimal schedule and the
// number of replays spent. fails must be deterministic for the
// minimization to mean anything.
func ShrinkWith(fails func(Schedule) bool, sched Schedule) (Schedule, int) {
	runs := 0
	check := func(s Schedule) bool {
		runs++
		return fails(s)
	}
	if check(nil) {
		return Schedule{}, runs
	}
	cur := sched
	for k := 1; k < len(sched); k++ {
		if check(sched[:k]) {
			cur = sched[:k]
			break
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append(Schedule{}, cur[:i]...), cur[i+1:]...)
			if check(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur, runs
}

// Report is the full record of one soak: config, scale, the drawn
// schedule, its outcome, and — on failure — the shrunken schedule and a
// reproducer line.
type Report struct {
	// Cfg is the soak's config with its preset's defaults filled in.
	Cfg      Config
	Scale    time.Duration
	Schedule Schedule
	Outcome  Outcome
	// Shrunk is the minimal failing schedule (nil when the soak passed;
	// possibly empty when the base config alone fails).
	Shrunk Schedule
	// Runs is the total number of schedule replays, shrinking included.
	Runs int
}

// Passed reports whether every invariant held on the full schedule.
func (r Report) Passed() bool { return r.Outcome.OK() }

// Reproducer is the one-line command that replays this exact soak,
// topology flags included; empty for the isolation soak, which asksim
// does not run.
func (r Report) Reproducer() string {
	c := r.Cfg
	var b strings.Builder
	switch c.Preset {
	case Rack:
		fmt.Fprintf(&b, "asksim -soak -soak.seed=%d -soak.events=%d -soak.senders=%d", c.Seed, c.Events, c.Senders)
	case FatTree:
		fmt.Fprintf(&b, "asksim -soak -topology fattree -soak.seed=%d -soak.events=%d -soak.spines=%d -soak.leaves=%d",
			c.Seed, c.Events, c.Spines, c.Leaves)
	default:
		return ""
	}
	fmt.Fprintf(&b, " -soak.tuples=%d", c.Tuples)
	if c.Base.CorruptProb != 0 {
		fmt.Fprintf(&b, " -soak.corrupt=%g", c.Base.CorruptProb)
	}
	if c.DisableChecksumVerify {
		b.WriteString(" -soak.break-checksums")
	}
	if c.Shards > 1 {
		fmt.Fprintf(&b, " -soak.shards=%d", c.Shards)
	}
	return b.String()
}

// evidence is a passing report's evidence line.
func (r Report) evidence() string {
	return fmt.Sprintf("  evidence: corrupt_dropped switch=%d host=%d, retransmits=%d, replays=%d\n",
		r.Outcome.SwitchCorruptDropped, r.Outcome.HostCorruptDropped, r.Outcome.Retransmits, r.Outcome.Replays)
}

func (r Report) String() string {
	p := presets[r.Cfg.Preset]
	if r.Passed() {
		return fmt.Sprintf("%s seed=%d PASS: %s", p.name, r.Cfg.Seed, p.summary(r))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d FAIL: %s\n", p.name, r.Cfg.Seed, r.Outcome.Violation)
	fmt.Fprintf(&b, "minimal failing schedule (%d of %d events, %d replays):\n",
		len(r.Shrunk), len(r.Schedule), r.Runs)
	fmt.Fprintf(&b, "%s\n", r.Shrunk)
	if line := r.Reproducer(); line != "" {
		fmt.Fprintf(&b, "reproduce with: %s\n", line)
	}
	return b.String()
}

// Soak runs one full soak for cfg: golden timing run, schedule
// generation, replay, and — on violation — shrinking. The error returns
// are an invalid config and a golden-run failure; fault-induced
// violations are reported in the Report, reproducer included.
func Soak(cfg Config) (Report, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return Report{}, err
	}
	scale, err := GoldenScale(cfg)
	if err != nil {
		return Report{}, err
	}
	sched := GenerateSchedule(cfg)
	rep := Report{Cfg: cfg, Scale: scale, Schedule: sched, Runs: 1}
	rep.Outcome = RunSchedule(cfg, sched, scale)
	if !rep.Passed() {
		shrunk, runs := ShrinkWith(func(s Schedule) bool {
			return !RunSchedule(cfg, s, scale).OK()
		}, sched)
		rep.Shrunk = shrunk
		rep.Runs += runs
	}
	return rep, nil
}

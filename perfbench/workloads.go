package main

import (
	"fmt"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/tenancy"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// A workloadDef is one set of inputs the benchmark runs: a generator that
// materializes every task's input from a seed, and the deployment the tasks
// run on. Why each exists is recorded in README.md.
type workloadDef struct {
	name string
	// perSender is the number of input tuples each sender streams at full
	// scale (the short-scale test passes a smaller count).
	perSender int
	gen       func(seed int64, perSender int) []*task
	setup     func(seed int64) (*deployment, error)
}

// task is one aggregation task with its materialized input. Exactly one of
// streams and timed is set; want is the exact reference result, filled in
// by setReferences.
type task struct {
	spec    core.TaskSpec
	streams map[core.HostID][]core.KV
	timed   map[core.HostID][]core.TimedKV
	want    core.Result
	tuples  int64
}

// setReferences computes every task's exact result with core.Reference
// over its materialized input.
func setReferences(tasks []*task) {
	for _, t := range tasks {
		var in [][]core.KV
		for _, h := range t.spec.Senders {
			kvs := t.streams[h]
			if t.timed != nil {
				kvs = make([]core.KV, len(t.timed[h]))
				for j, tkv := range t.timed[h] {
					kvs[j] = tkv.KV
				}
			}
			in = append(in, kvs)
		}
		t.want = core.Reference(t.spec.Op, in...)
	}
}

// pending is the Get half of ask.PendingTask and ask.FatTreePendingTask.
type pending interface {
	Get() (*ask.TaskResult, error)
}

// deployment is a built cluster seen through the public surfaces the
// benchmark drives (start, Sim.Run, Get) and the stats accessors the
// per-layer ledger reads.
type deployment struct {
	sim   *sim.Simulation
	start func(t *task) (pending, error)
	// switches and fabrics are parallel: fabrics[i] is the SwitchFabric
	// switches[i] is attached to, so the traced run can re-attach it behind
	// a timing delegate.
	switches []*switchd.Switch
	fabrics  []netsim.SwitchFabric
	daemons  []*hostd.Daemon
	cpus     map[core.HostID]*cpumodel.Host
	links    []*netsim.Link
	group    *sim.ShardGroup
	tenancy  *tenancy.Manager
}

const rackHosts = 8

var workloads = []*workloadDef{
	{name: "rack-hot", perSender: 80_000, gen: genRackHot, setup: setupRack(0)},
	{name: "rack-cold-lossy", perSender: 100_000, gen: genRackCold, setup: setupRack(0.001)},
	{name: "fabric-paced", perSender: 10_000, gen: genFabricPaced, setup: setupFabric},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// subSeed derives an independent generator seed for stream i of a run.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// rackTask builds the rack workloads' single task: receiver 0, senders
// 1..7, one independently seeded stream each.
func rackTask(seed int64, perSender int, spec func(seed int64) workload.Spec) []*task {
	t := &task{
		spec:    core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum},
		streams: make(map[core.HostID][]core.KV),
	}
	for h := 1; h < rackHosts; h++ {
		s := spec(subSeed(seed, h))
		s.Tuples = int64(perSender)
		kvs := core.Collect(s.Stream())
		t.spec.Senders = append(t.spec.Senders, core.HostID(h))
		t.streams[core.HostID(h)] = kvs
		t.tuples += int64(len(kvs))
	}
	return []*task{t}
}

// genRackHot: Zipf s=1.1 over 65 536 natural-language keys per sender.
func genRackHot(seed int64, perSender int) []*task {
	return rackTask(seed, perSender, func(s int64) workload.Spec {
		z := workload.Zipf(65_536, 0, 1.1, workload.Shuffled, s)
		z.KeyLens = workload.NaturalLanguage(0)
		return z
	})
}

// genRackCold: uniform over 1 000 000 natural-language keys per sender.
func genRackCold(seed int64, perSender int) []*task {
	return rackTask(seed, perSender, func(s int64) workload.Spec {
		u := workload.Uniform(1_000_000, 0, s)
		u.KeyLens = workload.NaturalLanguage(0)
		return u
	})
}

// setupRack builds the 8-host rack with loss probability lossProb on every
// link direction.
func setupRack(lossProb float64) func(seed int64) (*deployment, error) {
	return func(seed int64) (*deployment, error) {
		link := netsim.DefaultLinkConfig()
		link.Fault.LossProb = lossProb
		cl, err := ask.NewCluster(ask.Options{Hosts: rackHosts, Link: link, Seed: seed})
		if err != nil {
			return nil, err
		}
		d := &deployment{
			sim: cl.Sim,
			start: func(t *task) (pending, error) {
				streams := make(map[core.HostID]core.Stream, len(t.streams))
				for h, kvs := range t.streams {
					streams[h] = core.SliceStream(kvs)
				}
				return cl.StartTask(t.spec, streams)
			},
			switches: []*switchd.Switch{cl.Switch},
			fabrics:  []netsim.SwitchFabric{cl.Net},
			cpus:     make(map[core.HostID]*cpumodel.Host),
		}
		for h := 0; h < rackHosts; h++ {
			id := core.HostID(h)
			d.daemons = append(d.daemons, cl.Daemon(id))
			d.cpus[id] = cl.CPU(id)
			d.links = append(d.links, cl.HostUplink(id), cl.HostDownlink(id))
		}
		return d, nil
	}
}

// Fat-tree shape of fabric-paced: tenant i (1-based) receives on host slot
// i-1 of leaf 0 and sends from the same slot of every other leaf.
const (
	fabricSpines = 2
	fabricLeaves = 8
	fabricPerLf  = 2
	fabricShards = 2
)

var fabricTenants = []struct {
	id       core.TenantID
	scenario string
}{{1, "flash-crowd"}, {2, "hot-rotate"}}

func fabricOptions(seed int64) ask.FatTreeOptions {
	o := ask.FatTreeOptions{
		Spines: fabricSpines, Leaves: fabricLeaves, HostsPerLeaf: fabricPerLf,
		Seed: seed, Shards: fabricShards,
	}
	for _, tn := range fabricTenants {
		o.Tenants = append(o.Tenants, tenancy.TenantSpec{ID: tn.id, Weight: 1})
	}
	return o
}

// genFabricPaced: each tenant replays one corpus scenario dealt round-robin
// to its senders, so they share the scenario's timeline. Arrival times are
// the corpus scenario's own seed-pinned timeline; the seed re-draws the
// tuples. (Flash-crowd's exponential phase dwells make the timeline's span,
// and with it the task's completion time, vary by a third between seeds.)
func genFabricPaced(seed int64, perSender int) []*task {
	o := fabricOptions(seed)
	senders := fabricLeaves - 1
	var tasks []*task
	for i, tn := range fabricTenants {
		sc, err := scenario.ByName(tn.scenario)
		if err != nil {
			panic(err) // the corpus names above are fixed
		}
		sc = sc.WithTuples(int64(senders * perSender))
		timeline := core.CollectTimed(sc.TimedStream())
		drawn := core.CollectTimed(sc.WithSeed(subSeed(seed, i)).TimedStream())
		for j := range timeline {
			timeline[j].KV = drawn[j].KV
		}
		t := &task{
			spec:  core.TaskSpec{ID: core.MakeTaskID(tn.id, 1), Receiver: o.HostAt(0, i), Op: core.OpSum},
			timed: make(map[core.HostID][]core.TimedKV),
		}
		for l, part := range workload.SplitTimedRoundRobin(timeline, senders) {
			h := o.HostAt(l+1, i)
			t.spec.Senders = append(t.spec.Senders, h)
			t.timed[h] = part
			t.tuples += int64(len(part))
		}
		tasks = append(tasks, t)
	}
	return tasks
}

func setupFabric(seed int64) (*deployment, error) {
	o := fabricOptions(seed)
	fc, err := ask.NewFatTreeCluster(o)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		sim: fc.Sim,
		start: func(t *task) (pending, error) {
			streams := make(map[core.HostID]core.TimedStream, len(t.timed))
			for h, tkvs := range t.timed {
				streams[h] = core.SliceTimedStream(tkvs)
			}
			return fc.StartTaskTimed(t.spec, streams)
		},
		cpus:    make(map[core.HostID]*cpumodel.Host),
		group:   fc.Net.Group(),
		tenancy: fc.Tenancy,
	}
	for l, sw := range fc.Leaves {
		d.switches = append(d.switches, sw)
		d.fabrics = append(d.fabrics, fc.Net.Leaf(l))
		for s := range fc.Spines {
			d.links = append(d.links, fc.Net.SpineUplink(l, s))
		}
		for i := 0; i < o.HostsPerLeaf; i++ {
			id := o.HostAt(l, i)
			d.daemons = append(d.daemons, fc.Daemon(id))
			d.cpus[id] = fc.CPU(id)
			d.links = append(d.links, fc.Net.Uplink(id), fc.Net.Downlink(id))
		}
	}
	for s, sw := range fc.Spines {
		d.switches = append(d.switches, sw)
		d.fabrics = append(d.fabrics, fc.Net.Spine(s))
	}
	return d, nil
}

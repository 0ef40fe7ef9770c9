package main

import (
	"fmt"
	"os"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// fatTreeFlags is the CLI parameter set of the fat-tree topology mode.
type fatTreeFlags struct {
	Spines, Leaves, HostsPerLeaf int
	Tenants                      int
	Tuples                       int64
	Distinct                     int
	Skew                         float64
	Rows                         int
	Seed                         int64
	Verify                       bool
	Telemetry                    bool
	Shards                       int
}

// runFatTree drives the spine/leaf deployment: with -tenants 0 a single
// cross-leaf task, otherwise one concurrent task per tenant under weighted
// AA allocation (equal weights from the CLI).
func runFatTree(ff fatTreeFlags) {
	if ff.HostsPerLeaf < 2 {
		fail("fattree needs -hosts >= 2 (hosts per leaf; slot 0 of leaf 0 receives)")
	}
	if ff.Tenants > ff.HostsPerLeaf {
		fail("fattree needs -tenants <= -hosts (one receiver slot per tenant)")
	}
	opts := ask.FatTreeOptions{
		Spines: ff.Spines, Leaves: ff.Leaves, HostsPerLeaf: ff.HostsPerLeaf,
		Seed:      ff.Seed,
		Telemetry: telemetry.Config{Enabled: ff.Telemetry},
		Shards:    ff.Shards,
	}
	for i := 0; i < ff.Tenants; i++ {
		opts.Tenants = append(opts.Tenants, tenancy.TenantSpec{ID: core.TenantID(i + 1), Weight: 1})
	}
	fc, err := ask.NewFatTreeCluster(opts)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("fat-tree: %d spines × %d leaves × %d hosts/leaf", ff.Spines, ff.Leaves, ff.HostsPerLeaf)
	if ff.Tenants > 0 {
		fmt.Printf(", %d tenants (equal weights)", ff.Tenants)
	}
	fmt.Println()

	// One plan per task: with tenants, tenant i's receiver sits in slot i of
	// leaf 0 and a sender in slot i of every other leaf; untenanted, a
	// single task uses slot 0 (plus a local sender in slot 1 of leaf 0).
	type plan struct {
		label string
		spec  core.TaskSpec
		str   map[core.HostID]core.Stream
		want  core.Result
	}
	stream := func(slot int, seedOff int64) (core.Stream, core.Result) {
		w := workload.Spec{
			Name: "cli", Distinct: ff.Distinct, Tuples: ff.Tuples,
			Skew: ff.Skew, Seed: ff.Seed + seedOff,
			KeyLens: workload.NaturalLanguage(0),
		}
		return w.Stream(), w.Reference(core.OpSum)
	}
	var plans []plan
	ntasks := ff.Tenants
	if ntasks == 0 {
		ntasks = 1
	}
	for i := 0; i < ntasks; i++ {
		p := plan{
			label: "task",
			spec:  core.TaskSpec{ID: core.TaskID(i + 1), Receiver: opts.HostAt(0, i), Op: core.OpSum, Rows: ff.Rows},
			str:   make(map[core.HostID]core.Stream),
			want:  make(core.Result),
		}
		if ff.Tenants > 0 {
			p.label = fmt.Sprintf("tenant %d", i+1)
			p.spec.ID = core.MakeTaskID(core.TenantID(i+1), uint32(i+1))
		}
		for l := 0; l < ff.Leaves; l++ {
			slot := i
			if l == 0 {
				if ff.Leaves > 1 {
					continue // receiver's leaf contributes no sender on multi-leaf runs
				}
				slot = i + 1 // single-leaf degenerate case: local sender
			}
			h := opts.HostAt(l, slot)
			p.spec.Senders = append(p.spec.Senders, h)
			s, ref := stream(slot, int64(i*ff.Leaves+l))
			p.str[h] = s
			p.want.Merge(ref, core.OpSum)
		}
		plans = append(plans, p)
	}

	pending := make([]*ask.PendingTask, len(plans))
	for i, p := range plans {
		pt, err := fc.StartTask(p.spec, p.str)
		if err != nil {
			fail("%s: %v", p.label, err)
		}
		pending[i] = pt
	}
	fc.Sim.Run(0)
	if g := fc.Net.Group(); g != nil {
		// Host-dependent (cores, load), so it stays off stdout, which is
		// byte-identical for a given seed and flag set.
		hs := g.HostStats()
		fmt.Fprintf(os.Stderr, "scheduler: %d lanes, window handoffs %d without parking, %d parked\n",
			g.Lanes(), hs.Spun, hs.Parked)
	}

	ok := true
	for i, p := range plans {
		res, err := pending[i].Get()
		if err != nil {
			fail("%s: %v", p.label, err)
		}
		el := time.Duration(res.Elapsed)
		verdict := ""
		if ff.Verify {
			if res.Result.Equal(p.want) {
				verdict = "  exact ✓"
			} else {
				verdict = "  MISMATCH ✗"
				ok = false
			}
		}
		fmt.Printf("%-9s %8d keys in %12v, fabric absorbed %5.2f%% of %d tuples%s\n",
			p.label+":", len(res.Result), el,
			100*res.Switch.AggregatedTupleRatio(), res.Switch.TuplesIn, verdict)
	}

	// Per-tuple counters are per-task (switchd.TaskStats), so sum the plan's
	// tasks at each tier to show where the fabric absorbed the stream.
	absorbed := func(sw interface {
		TaskStatsOf(core.TaskID) *switchd.TaskStats
	}) int64 {
		var n int64
		for _, p := range plans {
			n += sw.TaskStatsOf(p.spec.ID).TuplesAggregated
		}
		return n
	}
	fmt.Printf("\nfabric:\n")
	for l, sw := range fc.Leaves {
		fmt.Printf("  leaf %d:  %8d tuples absorbed\n", l, absorbed(sw))
	}
	for sp, sw := range fc.Spines {
		fmt.Printf("  spine %d: %8d tuples absorbed (re-aggregated residue)\n", sp, absorbed(sw))
	}
	if fc.Tenancy != nil {
		fmt.Printf("\ntenancy (AA rows of %d):\n", fc.Config().AARows)
		for _, u := range fc.Tenancy.Snapshot() {
			fmt.Printf("  tenant %d: quota %5d rows, in use %d, borrowed %d\n",
				u.Tenant, u.Quota, u.InUse, u.Borrowed)
		}
	}
	if fc.Tel != nil {
		fmt.Println()
		fmt.Println(telemetry.Report(fc.Tel.Registry).String())
	}
	if !ok {
		os.Exit(1)
	}
}

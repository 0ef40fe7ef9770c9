package switchd

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The switch's counters live on a telemetry.Registry (the cluster-wide one
// when telemetry is enabled, a private one otherwise), so the Stats/
// TaskStats accessors are views over the same numbers the exporters see —
// no call site can silently diverge from the monitoring plane.

// switchMetrics caches the switch-global instrument pointers so the
// per-packet path pays one atomic add per event, never a registry lookup.
type switchMetrics struct {
	forwarded       *telemetry.Counter
	unregisteredFwd *telemetry.Counter
	staleDropped    *telemetry.Counter
	dupPackets      *telemetry.Counter
	switchAcks      *telemetry.Counter
	swaps           *telemetry.Counter
	fetches         *telemetry.Counter
	clears          *telemetry.Counter
	crashes         *telemetry.Counter
	reboots         *telemetry.Counter
	droppedDown     *telemetry.Counter
	corruptDropped  *telemetry.Counter
	probes          *telemetry.Counter
	revocations     *telemetry.Counter

	// aaOccupancy tracks non-blank aggregator entries across all AAs:
	// +1 per reserved slot, decremented when a range is wiped.
	aaOccupancy *telemetry.Gauge
}

// taskEntry is one task's cumulative registry counters plus the base
// snapshot taken at the last region (re-)allocation. TaskStatsOf reports
// cumulative−base, preserving the historical "stats reset on AllocRegion"
// semantics while the registry export stays monotonic (the monitoring
// plane survives reboots; see Reboot).
type taskEntry struct {
	tuplesIn         *telemetry.Counter
	tuplesAggregated *telemetry.Counter
	tuplesConflicted *telemetry.Counter
	dataPackets      *telemetry.Counter
	ackedPackets     *telemetry.Counter
	forwardedPackets *telemetry.Counter

	base TaskStats // guarded by Switch.tasksMu
}

func (sw *Switch) initMetrics(sink telemetry.Sink) {
	reg := sink.Reg
	if reg == nil {
		// Private registry: Stats views keep working without cluster-wide
		// telemetry (unit tests, multirack per-TOR switches).
		reg = telemetry.NewRegistry()
	}
	sw.reg = reg
	sw.tr = sink.Tr
	sw.met = switchMetrics{
		forwarded:       reg.Counter("switchd.forwarded_pkts"),
		unregisteredFwd: reg.Counter("switchd.unregistered_fwd_pkts"),
		staleDropped:    reg.Counter("switchd.stale_dropped_pkts"),
		dupPackets:      reg.Counter("switchd.dup_pkts"),
		switchAcks:      reg.Counter("switchd.switch_acks"),
		swaps:           reg.Counter("switchd.swaps"),
		fetches:         reg.Counter("switchd.fetches"),
		clears:          reg.Counter("switchd.clears"),
		crashes:         reg.Counter("switchd.crashes"),
		reboots:         reg.Counter("switchd.reboots"),
		droppedDown:     reg.Counter("switchd.dropped_down_pkts"),
		corruptDropped:  reg.Counter("switchd.corrupt_dropped"),
		probes:          reg.Counter("switchd.probes_answered"),
		revocations:     reg.Counter("switchd.revocations"),
		aaOccupancy:     reg.Gauge("switchd.aa_occupancy"),
	}
	reg.GaugeFunc("switchd.free_rows", func() int64 { return int64(sw.rows.totalFree()) })
	reg.GaugeFunc("switchd.regions_active", func() int64 { return int64(len(sw.regions)) })
	reg.GaugeFunc("switchd.flows_registered", func() int64 { return int64(len(sw.flows)) })
	reg.GaugeFunc("switchd.epoch", func() int64 { return int64(sw.epoch) })
	reg.GaugeFunc("switchd.down", func() int64 {
		if sw.down {
			return 1
		}
		return 0
	})
}

// Registry exposes the switch's metric registry (the cluster registry when
// telemetry is enabled).
func (sw *Switch) Registry() *telemetry.Registry { return sw.reg }

// taskEntryOf returns the task's instrument bundle, creating it on first
// use. The read path is an RLock so ingress and concurrent TaskStatsOf
// readers do not serialize.
func (sw *Switch) taskEntryOf(task core.TaskID) *taskEntry {
	sw.tasksMu.RLock()
	te := sw.tasks[task]
	sw.tasksMu.RUnlock()
	if te != nil {
		return te
	}
	sw.tasksMu.Lock()
	defer sw.tasksMu.Unlock()
	if te = sw.tasks[task]; te != nil {
		return te
	}
	labels := []telemetry.Label{telemetry.L("task", strconv.FormatUint(uint64(task), 10))}
	if tn := task.Tenant(); tn != 0 {
		// Multi-tenant fabrics slice every per-task series by tenant too;
		// untenanted tasks keep the exact single-label identity they always
		// had (metric-name goldens stay byte-identical).
		labels = append(labels, telemetry.L("tenant", strconv.FormatUint(uint64(tn), 10)))
	}
	te = &taskEntry{
		tuplesIn:         sw.reg.Counter("switchd.tuples_in", labels...),
		tuplesAggregated: sw.reg.Counter("switchd.tuples_aggregated", labels...),
		tuplesConflicted: sw.reg.Counter("switchd.tuples_conflicted", labels...),
		dataPackets:      sw.reg.Counter("switchd.data_pkts", labels...),
		ackedPackets:     sw.reg.Counter("switchd.acked_pkts", labels...),
		forwardedPackets: sw.reg.Counter("switchd.forwarded_data_pkts", labels...),
	}
	sw.tasks[task] = te
	return te
}

// cumulative reads the entry's monotonic counters. Ingress counts a tuple
// (packet) in before it counts its outcome, so reading every outcome before
// its total keeps a snapshot taken off the simulation goroutine consistent:
// outcomes never exceed totals.
func (te *taskEntry) cumulative() TaskStats {
	var s TaskStats
	s.TuplesAggregated = te.tuplesAggregated.Value()
	s.TuplesConflicted = te.tuplesConflicted.Value()
	s.TuplesIn = te.tuplesIn.Value()
	s.AckedPackets = te.ackedPackets.Value()
	s.ForwardedPackets = te.forwardedPackets.Value()
	s.DataPackets = te.dataPackets.Value()
	return s
}

func sub(a, b TaskStats) TaskStats {
	return TaskStats{
		TuplesIn:         a.TuplesIn - b.TuplesIn,
		TuplesAggregated: a.TuplesAggregated - b.TuplesAggregated,
		TuplesConflicted: a.TuplesConflicted - b.TuplesConflicted,
		DataPackets:      a.DataPackets - b.DataPackets,
		AckedPackets:     a.AckedPackets - b.AckedPackets,
		ForwardedPackets: a.ForwardedPackets - b.ForwardedPackets,
	}
}

// resetTaskStats rebases the task's view counters at the current
// cumulative values: TaskStatsOf starts over at zero while the registry
// export stays monotonic.
func (sw *Switch) resetTaskStats(task core.TaskID) {
	te := sw.taskEntryOf(task)
	sw.tasksMu.Lock()
	te.base = te.cumulative()
	sw.tasksMu.Unlock()
}

// clearAARange zeroes rows [lo,hi) of every AA, keeping the occupancy
// gauge consistent by counting the non-blank entries wiped. Control-plane
// only — never on the per-packet path.
func (sw *Switch) clearAARange(lo, hi int) {
	n := uint(8 * sw.cfg.KPartBytes)
	var wiped int64
	for _, aa := range sw.raAAs {
		for row := lo; row < hi; row++ {
			if aa.ControlRead(row)>>n != 0 {
				wiped++
			}
		}
		aa.ControlFill(lo, hi, 0)
	}
	sw.met.aaOccupancy.Add(-wiped)
}

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tenancy"
)

// ingressTimer is the timing delegate the traced run installs in front of
// each switch program through the public netsim.SwitchHandler seam. Each
// switch is driven by exactly one shard lane, so one timer per switch is a
// per-lane accumulator and needs no synchronization; totals are read after
// Sim.Run returns.
type ingressTimer struct {
	inner netsim.SwitchHandler
	calls int64
	ns    int64
	// tenancy, when set, is polled for borrowed rows on each call; peak is
	// the largest total seen.
	tenancy *tenancy.Manager
	peak    int
}

// HandleIngress implements netsim.SwitchHandler.
func (t *ingressTimer) HandleIngress(f *netsim.Frame) {
	start := time.Now()
	t.inner.HandleIngress(f)
	t.ns += int64(time.Since(start))
	t.calls++
	if t.tenancy != nil {
		b := 0
		for _, tn := range fabricTenants {
			b += t.tenancy.Borrowed(tn.id)
		}
		if b > t.peak {
			t.peak = b
		}
	}
}

// tracer collects the traced rep's per-layer evidence: switch ingress
// timings, and the CPU and allocation profiles of the run region. The zero
// value is ready for one rep.
type tracer struct {
	timers []*ingressTimer
	cpuBuf bytes.Buffer
	heap0  map[string]int64
	rec    traceRecord
}

// traceRecord is the layer evidence of one traced rep.
type traceRecord struct {
	CPUSamples   map[string]int64 // CPU profile samples per bucket
	AllocBytes   map[string]int64 // allocated bytes per bucket
	IngressCalls int64
	IngressNs    int64
	RunNs        int64
	BorrowedPeak int // most tenancy rows on loan at once
	// Probe timings of single public functions on the workload's keys.
	PlaceNsPerKey, EncodeNsPerPkt, DecodeNsPerPkt float64
}

// wrap re-attaches every switch behind an ingress timer.
func (tr *tracer) wrap(d *deployment) {
	for i, sw := range d.switches {
		t := &ingressTimer{inner: sw, tenancy: d.tenancy}
		d.fabrics[i].AttachSwitch(t)
		tr.timers = append(tr.timers, t)
	}
}

// begin snapshots the allocation profile and starts the CPU profile; the
// run region follows immediately.
func (tr *tracer) begin() error {
	h, err := allocsByBucket()
	if err != nil {
		return err
	}
	tr.heap0 = h
	return pprof.StartCPUProfile(&tr.cpuBuf)
}

// end stops the profiles and records the run region's evidence.
func (tr *tracer) end(run time.Duration) error {
	pprof.StopCPUProfile()
	p, err := parseProfile(tr.cpuBuf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if tr.rec.CPUSamples, err = attribute(p, "samples", cpuBucket); err != nil {
		return err
	}
	h, err := allocsByBucket()
	if err != nil {
		return err
	}
	tr.rec.AllocBytes = make(map[string]int64, len(h))
	for b, n := range h {
		tr.rec.AllocBytes[b] = n - tr.heap0[b]
	}
	for _, t := range tr.timers {
		tr.rec.IngressCalls += t.calls
		tr.rec.IngressNs += t.ns
		tr.rec.BorrowedPeak = max(tr.rec.BorrowedPeak, t.peak)
	}
	tr.rec.RunNs = int64(run)
	return nil
}

// record runs the probes on the workload's keys and returns the evidence.
func (tr *tracer) record(tasks []*task) (*traceRecord, error) {
	cfg := core.DefaultConfig()
	keys := probeKeys(tasks)
	var err error
	if tr.rec.PlaceNsPerKey, err = placeNsPerKey(cfg, keys); err != nil {
		return nil, err
	}
	if tr.rec.EncodeNsPerPkt, tr.rec.DecodeNsPerPkt, err = codecNsPerPkt(cfg, keys); err != nil {
		return nil, err
	}
	return &tr.rec, nil
}

// allocsByBucket reads the cumulative allocation profile, attributed by
// leaf-most repository frame. The GC first publishes every allocation made
// so far, so two reads bracket exactly the allocations in between.
func allocsByBucket() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	return attribute(p, "alloc_space", allocBucket)
}

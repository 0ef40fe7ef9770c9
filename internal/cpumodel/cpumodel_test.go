package cpumodel

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestExecConsumesCPU(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, 2)
	var endA, endB, endC sim.Time
	s.Spawn("a", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond); endA = p.Now() })
	s.Spawn("b", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond); endB = p.Now() })
	s.Spawn("c", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond); endC = p.Now() })
	s.Run(0)
	if endA != sim.Time(10*time.Microsecond) || endB != sim.Time(10*time.Microsecond) {
		t.Fatalf("parallel execs ended at %v/%v", endA, endB)
	}
	if endC != sim.Time(20*time.Microsecond) {
		t.Fatalf("queued exec ended at %v, want 20µs", endC)
	}
	if got := h.BusyTime(); got != 30*time.Microsecond {
		t.Fatalf("BusyTime = %v", got)
	}
}

func TestUtilization(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, 4)
	s.Spawn("w", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond) })
	s.Run(0)
	// 1 core busy 10µs of 4 cores × 10µs = 25%.
	if u := h.Utilization(); u < 0.249 || u > 0.251 {
		t.Fatalf("Utilization = %v, want 0.25", u)
	}
	if h.NumCores() != 4 {
		t.Fatalf("NumCores = %d", h.NumCores())
	}
}

func TestThreadRun(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, 1)
	th := h.NewThread()
	var end sim.Time
	s.Spawn("t", func(p *sim.Proc) {
		th.Run(p, 5*time.Microsecond)
		th.Run(p, 5*time.Microsecond)
		end = p.Now()
	})
	s.Run(0)
	if end != sim.Time(10*time.Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

func TestSparkAggregateRateCalibration(t *testing.T) {
	// The calibration targets from Fig. 3(a): ≈7 M AKV/s at 4 cores,
	// saturating near ≈43 M at 56 cores, with clearly sublinear scaling.
	r4, r16, r56 := SparkAggregateRate(4), SparkAggregateRate(16), SparkAggregateRate(56)
	if r4 < 6e6 || r4 > 9e6 {
		t.Fatalf("rate(4) = %.2e, want ~7.2e6", r4)
	}
	if r56 < 40e6 || r56 > 48e6 {
		t.Fatalf("rate(56) = %.2e, want ~43e6", r56)
	}
	if !(r4 < r16 && r16 < r56) {
		t.Fatal("rate not monotonic in cores")
	}
	// Sublinear: 56 cores must be well under 14× the 4-core rate.
	if r56/r4 > 8 {
		t.Fatalf("scaling %f× looks linear; shared cost not applied", r56/r4)
	}
}

// TestThreadRunCallMatchesRun runs the same contended work with Thread.Run
// from processes and with Thread.RunCall from callbacks: completion times
// and busy accounting must agree.
func TestThreadRunCallMatchesRun(t *testing.T) {
	const work = 10 * time.Microsecond
	procs := func() ([]sim.Time, time.Duration) {
		s := sim.New(1)
		h := NewHost(s, 2)
		ends := make([]sim.Time, 3)
		for i := range ends {
			i, th := i, h.NewThread()
			s.Spawn("w", func(p *sim.Proc) { th.Run(p, work); ends[i] = p.Now() })
		}
		s.Run(0)
		return ends, h.BusyTime()
	}
	calls := func() ([]sim.Time, time.Duration) {
		s := sim.New(1)
		h := NewHost(s, 2)
		ends := make([]sim.Time, 3)
		for i := range ends {
			i, th := i, h.NewThread()
			s.At(0, func() {
				th.RunCall(work, func(a any) { ends[a.(int)] = s.Now() }, i)
			})
		}
		s.Run(0)
		return ends, h.BusyTime()
	}
	pe, pb := procs()
	ce, cb := calls()
	for i := range pe {
		if pe[i] != ce[i] {
			t.Fatalf("RunCall ends %v, Run ends %v", ce, pe)
		}
	}
	if pb != cb || pb != 3*work {
		t.Fatalf("busy time RunCall %v, Run %v, want %v", cb, pb, 3*work)
	}
}

package sim

import (
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	s := New(1)
	var at []Time
	s.Spawn("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(5 * Microsecond)
		at = append(at, p.Now())
		p.Sleep(5 * Microsecond)
		at = append(at, p.Now())
	})
	s.Run(0)
	want := []Time{0, Time(5 * Microsecond), Time(10 * Microsecond)}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at = %v, want %v", at, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * Microsecond)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * Microsecond)
		order = append(order, "b1")
	})
	s.Run(0)
	want := []string{"a0", "b0", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcSleepUntil(t *testing.T) {
	s := New(1)
	s.Spawn("p", func(p *Proc) {
		p.SleepUntil(Time(7 * Microsecond))
		if p.Now() != Time(7*Microsecond) {
			t.Errorf("now = %v, want 7µs", p.Now())
		}
		// In the past: no-op.
		p.SleepUntil(Time(3 * Microsecond))
		if p.Now() != Time(7*Microsecond) {
			t.Errorf("SleepUntil past moved time to %v", p.Now())
		}
	})
	s.Run(0)
}

func TestSignalBroadcast(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	woke := 0
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			p.Wait(sg)
			woke++
		})
	}
	s.After(10*Microsecond, sg.Fire)
	s.Run(0)
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

func TestResourceContention(t *testing.T) {
	s := New(1)
	r := NewResource(s, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) {
			r.Use(p, 10*Microsecond)
			ends = append(ends, p.Now())
		})
	}
	s.Run(0)
	// Two run [0,10µs], two queue and run [10µs,20µs].
	want := []Time{Time(10 * Microsecond), Time(10 * Microsecond), Time(20 * Microsecond), Time(20 * Microsecond)}
	if len(ends) != len(want) {
		t.Fatalf("ends = %v", ends)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if got := r.BusyTime(); got != 40*Microsecond {
		t.Fatalf("BusyTime = %v, want 40µs", got)
	}
	// 40µs of busy over 20µs × 2 capacity = fully utilized.
	if u := r.Utilization(); u < 0.999 || u > 1.001 {
		t.Fatalf("Utilization = %v, want 1.0", u)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on idle resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on full resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestResourceFIFO(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Microsecond)
			r.Release()
		})
	}
	s.Run(0)
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("acquire order = %v, want FIFO", order)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	s := New(1)
	NewResource(s, 1).Release()
}

func TestWaitGroup(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup(s)
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * Microsecond
		s.Spawn("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	s.Run(0)
	if doneAt != Time(3*Microsecond) {
		t.Fatalf("doneAt = %v, want 3µs", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup(s)
	ran := false
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p) // must not block
		ran = true
	})
	s.Run(0)
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() Time {
		s := New(7)
		r := NewResource(s, 3)
		for i := 0; i < 50; i++ {
			s.Spawn("w", func(p *Proc) {
				for j := 0; j < 5; j++ {
					r.Use(p, time.Duration(1+p.Sim().Rand().Intn(10))*Microsecond)
				}
			})
		}
		return s.Run(0)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic end times: %v vs %v", a, b)
	}
}

func TestWaitTimeoutSignalFirst(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	var fired bool
	var at Time
	s.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(sg, 100*Microsecond)
		at = p.Now()
	})
	s.After(10*Microsecond, sg.Fire)
	s.Run(0)
	if !fired {
		t.Fatal("signal did not win the race")
	}
	if at != Time(10*Microsecond) {
		t.Fatalf("woke at %v, want 10µs", at)
	}
	// The loser (timer) must not fire later: run on and ensure no panic
	// from double-dispatch and no pending events.
	if s.Pending() != 0 {
		t.Fatalf("pending events after race: %d", s.Pending())
	}
}

func TestWaitTimeoutTimeoutFirst(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	var fired bool
	var at Time
	s.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(sg, 5*Microsecond)
		at = p.Now()
	})
	// Signal fires AFTER the timeout: must be a no-op for this waiter.
	s.After(50*Microsecond, sg.Fire)
	s.Run(0)
	if fired {
		t.Fatal("timeout should have won")
	}
	if at != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", at)
	}
}

func TestWaitTimeoutRepeated(t *testing.T) {
	// The retransmit-until-ack pattern: loop WaitTimeout until a condition.
	s := New(1)
	sg := NewSignal(s)
	done := false
	s.After(95*Microsecond, func() { done = true; sg.Fire() })
	attempts := 0
	var end Time
	s.Spawn("rpc", func(p *Proc) {
		for !done {
			attempts++
			p.WaitTimeout(sg, 30*Microsecond)
		}
		end = p.Now()
	})
	s.Run(0)
	if attempts != 4 { // 30, 60, 90, then signal at 95
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if end != Time(95*Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

// TestResourceAcquireCall checks the continuation form against the process
// form: a free unit is taken inline, a queued caller is handed the unit at
// Release (InUse stays constant) and resumes on an event at that instant,
// and process and continuation waiters share one FIFO queue.
func TestResourceAcquireCall(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	if !r.AcquireCall(func(any) { t.Fatal("inline acquire ran its continuation") }, nil) {
		t.Fatal("AcquireCall on a free resource did not acquire inline")
	}
	var order []string
	var at []Time
	s.Spawn("p", func(p *Proc) {
		r.Acquire(p)
		order, at = append(order, "proc"), append(at, p.Now())
		p.Sleep(time.Microsecond)
		r.Release()
	})
	s.At(1, func() {
		if r.AcquireCall(func(a any) {
			order, at = append(order, a.(string)), append(at, s.Now())
			if r.InUse() != 1 {
				t.Errorf("continuation resumed with InUse=%d, want the handed-over unit", r.InUse())
			}
			r.Release()
		}, "call") {
			t.Error("AcquireCall on a held resource acquired inline")
		}
	})
	s.At(Time(5*time.Microsecond), r.Release)
	s.Run(0)
	want := []Time{Time(5 * time.Microsecond), Time(6 * time.Microsecond)}
	if len(order) != 2 || order[0] != "proc" || order[1] != "call" || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("grants %v at %v, want [proc call] at %v", order, at, want)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("InUse=%d QueueLen=%d after all releases", r.InUse(), r.QueueLen())
	}
}

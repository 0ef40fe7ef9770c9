package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestAtCallOrdering verifies that closure events (At) and arg-carrying
// events (AtCall) interleave in exact scheduling order: the kernel's total
// order is (time, seq) regardless of which entry point scheduled the event.
func TestAtCallOrdering(t *testing.T) {
	s := New(1)
	var got []int
	push := func(a any) { got = append(got, *a.(*int)) }
	vals := make([]int, 6)
	for i := range vals {
		vals[i] = i
	}
	// Interleave styles at the same and different instants.
	s.AtCall(10, push, &vals[0])
	s.At(10, func() { got = append(got, vals[1]) })
	s.AtCall(10, push, &vals[2])
	s.At(5, func() { got = append(got, vals[3]) })
	s.AtCall(5, push, &vals[4])
	s.AtCall(20, push, &vals[5])
	s.Run(0)
	want := []int{3, 4, 0, 1, 2, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

// TestAfterCall verifies relative scheduling of arg-carrying events and the
// negative-delay panic.
func TestAfterCall(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	x := 7
	s.After(3*time.Microsecond, func() {
		s.AfterCall(2*time.Microsecond, func(a any) {
			if *a.(*int) != 7 {
				t.Errorf("arg = %d, want 7", *a.(*int))
			}
			fired = s.Now()
		}, &x)
	})
	s.Run(0)
	if fired != Time(5*time.Microsecond) {
		t.Fatalf("fired at %v, want 5µs", fired)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterCall did not panic")
		}
	}()
	s.AfterCall(-1, func(any) {}, nil)
}

// TestTimerGenerations exercises slot recycling: a Timer held across its
// event firing must become inert even after its slot is reused by a new
// event, and stopping the stale Timer must not cancel the new occupant.
func TestTimerGenerations(t *testing.T) {
	s := New(1)
	var ranA, ranB bool
	ta := s.At(1, func() { ranA = true })
	s.Run(0)
	if !ranA {
		t.Fatal("first event did not run")
	}
	// The slot freed by ta's event is now the sole free slot; this new event
	// reuses it with a bumped generation.
	s.At(2, func() { ranB = true })
	if ta.Stop() {
		t.Fatal("stale Timer.Stop reported true after slot reuse")
	}
	if ta.Pending() {
		t.Fatal("stale Timer.Pending reported true after slot reuse")
	}
	s.Run(0)
	if !ranB {
		t.Fatal("recycled-slot event was cancelled by a stale Timer")
	}
}

// TestStopSemantics verifies cancel-before-fire, double-stop, and the
// Pending counter across the cancel path.
func TestStopSemantics(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Microsecond, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after schedule")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after stop, want 0", s.Pending())
	}
	s.Run(0)
	if ran {
		t.Fatal("stopped event ran")
	}
	var zero Timer
	if zero.Stop() || zero.Pending() {
		t.Fatal("zero Timer is not inert")
	}
}

// TestSlotReuseChurn drives many schedule/fire/cancel cycles through a small
// number of slots and checks the total order and liveness accounting stay
// exact. This is the free-list stress: with interleaved cancels the store
// should stay small while generations climb.
func TestSlotReuseChurn(t *testing.T) {
	s := New(42)
	rng := rand.New(rand.NewSource(7))
	var fired, cancelled, expectFired int
	var last Time
	var timers []Timer
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Intn(50)) * time.Nanosecond
			tm := s.After(d, func() {
				if s.Now() < last {
					t.Errorf("time went backwards: %v < %v", s.Now(), last)
				}
				last = s.Now()
				fired++
			})
			timers = append(timers, tm)
		}
		// Cancel a random prior timer (may already have fired: no-op).
		if len(timers) > 0 && rng.Intn(2) == 0 {
			if timers[rng.Intn(len(timers))].Stop() {
				cancelled++
			}
		}
		s.RunFor(time.Duration(rng.Intn(30)) * time.Nanosecond)
	}
	s.Run(0)
	expectFired = len(timers) - cancelled
	if fired != expectFired {
		t.Fatalf("fired %d events, want %d (scheduled %d, cancelled %d)",
			fired, expectFired, len(timers), cancelled)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d at drain, want 0", s.Pending())
	}
	// The store must have recycled slots rather than growing per event.
	if len(s.store) > 64 {
		t.Fatalf("event store grew to %d slots for ~%d concurrent events", len(s.store), 8*5)
	}
}

// TestSchedulingAllocs verifies the steady-state claim: after warm-up,
// scheduling and firing an arg-carrying event allocates nothing.
func TestSchedulingAllocs(t *testing.T) {
	s := New(1)
	sink := 0
	fn := func(a any) { sink += *a.(*int) }
	arg := new(int)
	*arg = 1
	// Warm up the store and heap.
	for i := 0; i < 64; i++ {
		s.AfterCall(time.Nanosecond, fn, arg)
	}
	s.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		s.AfterCall(time.Nanosecond, fn, arg)
		s.Run(0)
	})
	if avg != 0 {
		t.Fatalf("steady-state AfterCall+Run allocates %.2f objects/op, want 0", avg)
	}
}

// TestSignalWakeAllocs pins the callback wait cycle the host data path runs
// per packet: after warm-up, subscribing a pre-bound callback, firing the
// signal, and running the wake allocates nothing (Fire reuses the
// subscriber list's backing array).
func TestSignalWakeAllocs(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	wakes := 0
	wake := func() { wakes++ }
	for i := 0; i < 64; i++ {
		sg.Subscribe(wake)
		sg.Fire()
	}
	s.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		sg.Subscribe(wake)
		sg.Fire()
		s.Run(0)
	})
	if avg != 0 {
		t.Fatalf("steady-state Subscribe+Fire+wake allocates %.2f objects/op, want 0", avg)
	}
	if wakes != 64+1001 {
		t.Fatalf("%d wakes ran, want %d", wakes, 64+1001)
	}
}

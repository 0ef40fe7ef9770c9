package window

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

func mkPkt() *wire.Packet { return &wire.Packet{Type: wire.TypeData} }

func TestSenderAssignsSequences(t *testing.T) {
	s := sim.New(1)
	var sent []uint32
	w := NewSender(s, 8, 100*time.Microsecond, func(p *wire.Packet) { sent = append(sent, p.Seq) })
	for i := 0; i < 5; i++ {
		w.Send(mkPkt())
	}
	for i, seq := range sent {
		if seq != uint32(i) {
			t.Fatalf("sent = %v, want 0..4", sent)
		}
	}
	if w.InFlight() != 5 {
		t.Fatalf("InFlight = %d", w.InFlight())
	}
}

func TestSenderWindowLimit(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {})
	for i := 0; i < 4; i++ {
		if !w.CanSend() {
			t.Fatalf("window closed early at %d", i)
		}
		w.Send(mkPkt())
	}
	if w.CanSend() {
		t.Fatal("window open beyond W")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send past window did not panic")
		}
	}()
	w.Send(mkPkt())
}

func TestSenderAckAdvancesWindow(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {})
	for i := 0; i < 4; i++ {
		w.Send(mkPkt())
	}
	// Out-of-order ACK does not open the window (span unchanged).
	w.Ack(2)
	if w.CanSend() {
		t.Fatal("window opened on out-of-order ACK")
	}
	// ACK of base slides over the acked prefix (0, then 1, 2 already gone).
	w.Ack(0)
	w.Ack(1)
	if !w.CanSend() {
		t.Fatal("window did not open after prefix acked")
	}
	st := w.Stats()
	if st.Acked != 3 || st.Sent != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSenderRetransmitOnTimeout(t *testing.T) {
	s := sim.New(1)
	tx := 0
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) { tx++ })
	w.Send(mkPkt())
	s.Run(sim.Time(250 * time.Microsecond))
	// t=0 initial, retransmits at 100µs and 200µs.
	if tx != 3 {
		t.Fatalf("transmissions = %d, want 3", tx)
	}
	if w.Stats().Retransmits != 2 {
		t.Fatalf("retransmits = %d", w.Stats().Retransmits)
	}
	// ACK stops the timer.
	w.Ack(0)
	s.Run(sim.Time(time.Second))
	if tx != 3 {
		t.Fatalf("retransmitted after ACK: %d", tx)
	}
	if !w.Idle() {
		t.Fatal("not idle after full ACK")
	}
}

func TestSenderDuplicateAck(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {})
	w.Send(mkPkt())
	w.Ack(0)
	w.Ack(0)
	w.Ack(9) // never sent
	st := w.Stats()
	if st.DupAcks != 2 {
		t.Fatalf("DupAcks = %d, want 2", st.DupAcks)
	}
}

func TestSenderBlockingAndIdle(t *testing.T) {
	s := sim.New(1)
	const total = 20
	var w *Sender
	delivered := 0
	// Echo "network": ack every packet after 10µs.
	w = NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {
		seq := p.Seq
		s.After(10*time.Microsecond, func() {
			delivered++
			w.Ack(seq)
		})
	})
	var idleAt sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			w.SendBlocking(p, mkPkt())
		}
		w.WaitIdle(p)
		idleAt = p.Now()
	})
	s.Run(0)
	if delivered != total {
		t.Fatalf("delivered = %d, want %d", delivered, total)
	}
	if st := w.Stats(); st.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", st.Retransmits)
	}
	// 20 packets, window 4, 10µs RTT → 5 window-batches × 10µs.
	if idleAt != sim.Time(50*time.Microsecond) {
		t.Fatalf("idleAt = %v, want 50µs", idleAt)
	}
}

func TestSenderLossRecovery(t *testing.T) {
	// Drop every third transmission; everything must still be delivered
	// exactly once to a Dedup-guarded receiver, in bounded time.
	s := sim.New(3)
	const total = 200
	var w *Sender
	d := NewDedup(8)
	received := 0
	n := 0
	w = NewSender(s, 8, 100*time.Microsecond, func(p *wire.Packet) {
		n++
		if n%3 == 0 {
			return // dropped
		}
		seq := p.Seq
		s.After(5*time.Microsecond, func() {
			if d.Observe(seq) == Fresh {
				received++
			}
			// ACK (possibly duplicate) always returns.
			s.After(5*time.Microsecond, func() { w.Ack(seq) })
		})
	})
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			w.SendBlocking(p, mkPkt())
		}
		w.WaitIdle(p)
	})
	s.Run(0)
	if received != total {
		t.Fatalf("received %d distinct packets, want %d", received, total)
	}
	if w.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestSenderConstructorValidation(t *testing.T) {
	s := sim.New(1)
	bad := []func(){
		func() { NewSender(s, 0, time.Microsecond, func(*wire.Packet) {}) },
		func() { NewSender(s, 3, time.Microsecond, func(*wire.Packet) {}) },
		func() { NewSender(s, 8, 0, func(*wire.Packet) {}) },
		func() { NewSender(s, 8, time.Microsecond, nil) },
	}
	for i, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestTrySendParksOnFullWindow drives the continuation forms: TrySend sends
// inline while the window has room, parks (subscribing its wake) when it is
// full, and completes when re-invoked after an ACK opens space; TryWaitIdle
// parks until the last ACK and then reports done.
func TestTrySendParksOnFullWindow(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 2, time.Millisecond, func(p *wire.Packet) {})
	wakes := 0
	wake := func() { wakes++ }
	for i := 0; i < 2; i++ {
		if done, err := w.TrySend(mkPkt(), wake); !done || err != nil {
			t.Fatalf("TrySend %d with room: done=%v err=%v", i, done, err)
		}
	}
	third := mkPkt()
	if done, _ := w.TrySend(third, wake); done {
		t.Fatal("TrySend on a full window reported done")
	}
	if done, _ := w.TryWaitIdle(wake); done {
		t.Fatal("TryWaitIdle with packets in flight reported done")
	}
	w.Ack(0)
	// Unacked flights re-arm forever: run just past the wake.
	s.RunFor(time.Microsecond)
	if wakes != 1 {
		t.Fatalf("%d wakes after the window opened, want 1 (space)", wakes)
	}
	if done, err := w.TrySend(third, wake); !done || err != nil || third.Seq != 2 {
		t.Fatalf("re-invoked TrySend: done=%v err=%v seq=%d", done, err, third.Seq)
	}
	w.Ack(1)
	w.Ack(2)
	s.Run(0)
	if wakes != 2 {
		t.Fatalf("%d wakes after the window drained, want 2 (space, idle)", wakes)
	}
	if done, err := w.TryWaitIdle(wake); !done || err != nil {
		t.Fatalf("TryWaitIdle on an idle window: done=%v err=%v", done, err)
	}
}

// TestTrySendReportsAbort: a parked TrySend caller woken by a window abort
// gets the abort error instead of sending.
func TestTrySendReportsAbort(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 1, 10*time.Microsecond, func(p *wire.Packet) {})
	w.SetMaxRetries(1)
	pkt := mkPkt()
	var err error
	var retry func()
	retry = func() {
		var done bool
		if done, err = w.TrySend(pkt, retry); !done {
			return
		}
		if err == nil {
			t.Error("TrySend succeeded on an aborted window")
		}
	}
	w.Send(mkPkt())
	retry()
	s.Run(0)
	if err == nil || !w.Failed() {
		t.Fatalf("parked TrySend after abort: err=%v failed=%v", err, w.Failed())
	}
}

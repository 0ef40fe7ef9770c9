package window

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// SenderStats counts sender-window activity. It is a point-in-time view
// over the sender's telemetry counters (see Instrument).
type SenderStats struct {
	Sent        int64 // first transmissions
	Retransmits int64
	Acked       int64
	DupAcks     int64 // ACKs for packets no longer in flight
	Aborts      int64 // flights that exhausted MaxRetries
	Resets      int64 // failover window resets
}

// senderMetrics are the sender's instruments. A bare NewSender gets
// standalone counters (so Stats always works) and nil histograms;
// Instrument re-points everything at a shared registry.
type senderMetrics struct {
	sent        *telemetry.Counter
	retransmits *telemetry.Counter
	acked       *telemetry.Counter
	dupAcks     *telemetry.Counter
	aborts      *telemetry.Counter
	resets      *telemetry.Counter
	rtt         *telemetry.Histogram // first-transmission RTT, ns (Karn's rule)
	tries       *telemetry.Histogram // retransmissions per acked flight
}

// Congestion is the optional loss-based congestion control of §7
// (Discussion): an AIMD congestion window whose ceiling is the reliability
// window W — "the congestion window should not exceed the maximum window
// defined in the reliability mechanism, protecting the switch receive
// window from malfunctioning". Slow start doubles per window of ACKs up to
// ssthresh, then congestion avoidance adds one packet per window; a timeout
// halves ssthresh and restarts from a small window.
type congestion struct {
	cwnd     float64
	ssthresh float64
	max      float64
}

func newCongestion(w int) *congestion {
	return &congestion{cwnd: 2, ssthresh: float64(w) / 2, max: float64(w)}
}

func (c *congestion) allow() int { return int(c.cwnd) }

func (c *congestion) onAck() {
	if c.cwnd < c.ssthresh {
		c.cwnd++ // slow start
	} else {
		c.cwnd += 1 / c.cwnd // congestion avoidance
	}
	if c.cwnd > c.max {
		c.cwnd = c.max
	}
}

func (c *congestion) onTimeout() {
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = 2
}

// Sender is the host-side sliding window of §3.3: at most W packets in
// flight, per-packet retransmission on a fine-grained timeout (100 µs in the
// paper), and no reaction to out-of-order ACKs — the switch and the host
// receiver both emit ACKs, so ordering carries no loss signal.
//
// Sequence numbers are assigned by the window so the in-flight span never
// exceeds W, which the switch's receive window requires.
type Sender struct {
	sim      *sim.Simulation
	w        uint32
	timeout  time.Duration
	transmit func(*wire.Packet)

	nextSeq  uint32
	base     uint32 // lowest unacked sequence
	inflight map[uint32]*flight

	spaceSig *sim.Signal // fired when window space opens
	idleSig  *sim.Signal // fired when nothing is in flight

	// maxRetries bounds per-packet retransmissions (0 = unlimited, the
	// paper's behavior). When a flight exhausts it the window fails: all
	// timers stop and blocked senders observe Err() instead of retrying
	// into a dead peer forever.
	maxRetries int
	backoff    bool // exponential per-flight retransmission backoff
	err        error

	// retransmitFn is s.retransmit, bound once so arming a flight's timer
	// costs no closure.
	retransmitFn func(any)
	// parked marks a TrySend caller waiting for window space, so its
	// stall/resume trace pair spans the wait.
	parked bool

	cc   *congestion // nil unless EnableCongestionControl
	met  senderMetrics
	tr   *telemetry.Tracer
	flow string // label for trace events; set by Instrument
}

type flight struct {
	pkt    *wire.Packet
	timer  sim.Timer
	tries  int      // retransmissions so far
	sentAt sim.Time // first transmission time (RTT sampling)
}

// NewSender returns a sender window. transmit is invoked for every
// transmission and retransmission; it must not retain the packet.
func NewSender(s *sim.Simulation, w int, timeout time.Duration, transmit func(*wire.Packet)) *Sender {
	if w <= 0 || w&(w-1) != 0 {
		panic("window: sender window must be a positive power of two")
	}
	if timeout <= 0 {
		panic("window: non-positive retransmission timeout")
	}
	if transmit == nil {
		panic("window: nil transmit")
	}
	snd := &Sender{
		sim:      s,
		w:        uint32(w),
		timeout:  timeout,
		transmit: transmit,
		inflight: make(map[uint32]*flight),
		spaceSig: sim.NewSignal(s),
		idleSig:  sim.NewSignal(s),
		met: senderMetrics{
			sent:        &telemetry.Counter{},
			retransmits: &telemetry.Counter{},
			acked:       &telemetry.Counter{},
			dupAcks:     &telemetry.Counter{},
			aborts:      &telemetry.Counter{},
			resets:      &telemetry.Counter{},
		},
	}
	snd.retransmitFn = snd.retransmit
	return snd
}

// Instrument moves the window's counters onto a shared registry under
// window.*{flow=...} names, adds RTT and flight-retry histograms plus an
// in-flight occupancy gauge, and enables stall/resume trace events. Call
// right after NewSender, before any traffic (counts recorded before the
// call stay on the private instruments). A zero sink is a no-op.
func (s *Sender) Instrument(sink telemetry.Sink, flow string) {
	if sink.Reg == nil {
		return
	}
	l := telemetry.L("flow", flow)
	s.met = senderMetrics{
		sent:        sink.Reg.Counter("window.sent_pkts", l),
		retransmits: sink.Reg.Counter("window.retransmits", l),
		acked:       sink.Reg.Counter("window.acked_pkts", l),
		dupAcks:     sink.Reg.Counter("window.dup_acks", l),
		aborts:      sink.Reg.Counter("window.aborts", l),
		resets:      sink.Reg.Counter("window.resets", l),
		rtt:         sink.Reg.Histogram("window.rtt_ns", l),
		tries:       sink.Reg.Histogram("window.flight_tries", l),
	}
	sink.Reg.GaugeFunc("window.in_flight", func() int64 { return int64(len(s.inflight)) }, l)
	s.tr = sink.Tr
	s.flow = flow
}

// Stats returns a snapshot of the counters.
func (s *Sender) Stats() SenderStats {
	return SenderStats{
		Sent:        s.met.sent.Value(),
		Retransmits: s.met.retransmits.Value(),
		Acked:       s.met.acked.Value(),
		DupAcks:     s.met.dupAcks.Value(),
		Aborts:      s.met.aborts.Value(),
		Resets:      s.met.resets.Value(),
	}
}

// InFlight returns the number of unacknowledged packets.
func (s *Sender) InFlight() int { return len(s.inflight) }

// Idle reports whether every sent packet has been acknowledged.
func (s *Sender) Idle() bool { return len(s.inflight) == 0 }

// EnableCongestionControl turns on the AIMD congestion window (§7). Call
// before the first Send.
func (s *Sender) EnableCongestionControl() { s.cc = newCongestion(int(s.w)) }

// SetMaxRetries bounds per-packet retransmissions; after n unanswered
// retransmissions of any one packet the window fails (Err() != nil) and all
// blocked senders are released. n = 0 restores unlimited retries.
func (s *Sender) SetMaxRetries(n int) { s.maxRetries = n }

// EnableBackoff switches retransmission to exponential backoff: the k-th
// retransmission of a packet waits timeout·2^min(k,6). Off by default so
// the paper's fixed fine-grained timeout is preserved.
func (s *Sender) EnableBackoff() { s.backoff = true }

// Failed reports whether the window has aborted.
func (s *Sender) Failed() bool { return s.err != nil }

// Err returns the abort error, or nil.
func (s *Sender) Err() error { return s.err }

// NextSeq returns the sequence number the next Send will use.
func (s *Sender) NextSeq() uint32 { return s.nextSeq }

// fail aborts the window: all retransmission timers stop and every blocked
// SendBlocking/WaitIdle caller wakes up observing Err().
func (s *Sender) fail(err error) {
	if s.err != nil {
		return
	}
	s.err = err
	s.met.aborts.Inc()
	s.tr.EmitNote(telemetry.CompWindow, "window_abort", 0, s.flow)
	// Timer.Stop only marks the event dead; stops of distinct timers
	// commute, so this iteration's order cannot escape.
	//askcheck:allow(simdeterminism)
	for _, f := range s.inflight {
		f.timer.Stop()
	}
	s.spaceSig.Fire()
	s.idleSig.Fire()
}

// Reset abandons all in-flight packets and clears a previous failure: timers
// stop, the base jumps to nextSeq, and blocked callers wake. The failover
// machinery calls it when the switch's receive-window state has been lost
// anyway (reboot) and the flow is about to be replayed out of band; sequence
// numbers are NOT reused, so receiver-side dedup state stays valid.
func (s *Sender) Reset() {
	// Timer stops commute (see fail); iteration order cannot escape.
	//askcheck:allow(simdeterminism)
	for _, f := range s.inflight {
		f.timer.Stop()
	}
	s.inflight = make(map[uint32]*flight)
	s.base = s.nextSeq
	s.err = nil
	s.met.resets.Inc()
	s.tr.EmitNote(telemetry.CompWindow, "window_reset", 0, s.flow)
	s.spaceSig.Fire()
	s.idleSig.Fire()
}

// Cwnd returns the current congestion window in packets (W when congestion
// control is off).
func (s *Sender) Cwnd() int {
	if s.cc == nil {
		return int(s.w)
	}
	return s.cc.allow()
}

// CanSend reports whether the window has room for another packet.
func (s *Sender) CanSend() bool {
	limit := s.w
	if s.cc != nil {
		if cl := uint32(s.cc.allow()); cl < limit {
			limit = cl
		}
	}
	return s.nextSeq-s.base < limit
}

// Send assigns the next sequence number to pkt, transmits it, and arms its
// retransmission timer. The caller must ensure CanSend; blocking callers use
// SendBlocking.
func (s *Sender) Send(pkt *wire.Packet) {
	if !s.CanSend() {
		panic(fmt.Sprintf("window: Send with full window (base=%d next=%d)", s.base, s.nextSeq))
	}
	pkt.Seq = s.nextSeq
	s.nextSeq++
	f := &flight{pkt: pkt, sentAt: s.sim.Now()}
	s.inflight[pkt.Seq] = f
	s.met.sent.Inc()
	s.transmit(pkt)
	s.arm(f)
}

// SendBlocking is Send for process-style callers: it blocks p until window
// space is available. It returns the window's abort error if the window
// fails while blocked (or already has).
func (s *Sender) SendBlocking(p *sim.Proc, pkt *wire.Packet) error {
	stalled := false
	for !s.CanSend() {
		if s.err != nil {
			return s.err
		}
		if !stalled {
			stalled = true
			s.tr.Emit(telemetry.CompWindow, "window_stall", int64(pkt.Task), int64(s.nextSeq-s.base), 0)
		}
		p.Wait(s.spaceSig)
	}
	if stalled {
		s.tr.Emit(telemetry.CompWindow, "window_resume", int64(pkt.Task), int64(s.nextSeq-s.base), 0)
	}
	if s.err != nil {
		return s.err
	}
	s.Send(pkt)
	return nil
}

// TrySend is the continuation form of SendBlocking for callback-driven
// callers. If the window has room it sends pkt and reports done; if the
// window has failed it reports done with the abort error. Otherwise it
// subscribes wake to the window-space signal and reports !done: the caller
// returns to the event loop and calls TrySend again with the same packet
// when wake runs. One caller at a time may be parked in TrySend.
func (s *Sender) TrySend(pkt *wire.Packet, wake func()) (done bool, err error) {
	if !s.CanSend() {
		if s.err != nil {
			s.parked = false
			return true, s.err
		}
		if !s.parked {
			s.parked = true
			s.tr.Emit(telemetry.CompWindow, "window_stall", int64(pkt.Task), int64(s.nextSeq-s.base), 0)
		}
		s.spaceSig.Subscribe(wake)
		return false, nil
	}
	if s.parked {
		s.parked = false
		s.tr.Emit(telemetry.CompWindow, "window_resume", int64(pkt.Task), int64(s.nextSeq-s.base), 0)
	}
	if s.err != nil {
		return true, s.err
	}
	s.Send(pkt)
	return true, nil
}

// WaitIdle blocks p until all sent packets are acknowledged, or returns the
// abort error if the window fails first.
func (s *Sender) WaitIdle(p *sim.Proc) error {
	for !s.Idle() {
		if s.err != nil {
			return s.err
		}
		p.Wait(s.idleSig)
	}
	return s.err
}

// TryWaitIdle is the continuation form of WaitIdle: it reports done (with
// the abort error, if any) when nothing is in flight or the window has
// failed, and otherwise subscribes wake to the idle signal and reports
// !done; the caller calls TryWaitIdle again when wake runs.
func (s *Sender) TryWaitIdle(wake func()) (done bool, err error) {
	if !s.Idle() {
		if s.err != nil {
			return true, s.err
		}
		s.idleSig.Subscribe(wake)
		return false, nil
	}
	return true, s.err
}

func (s *Sender) arm(f *flight) {
	to := s.timeout
	if s.backoff && f.tries > 0 {
		shift := f.tries
		if shift > 6 {
			shift = 6
		}
		to = s.timeout << uint(shift)
	}
	f.timer = s.sim.AfterCall(to, s.retransmitFn, f)
}

// retransmit is a flight's timeout: still unacked, so retransmit and re-arm,
// unless the retry budget is exhausted — then the peer is presumed dead and
// the window aborts.
func (s *Sender) retransmit(a any) {
	f := a.(*flight)
	if s.maxRetries > 0 && f.tries >= s.maxRetries {
		s.fail(fmt.Errorf("window: packet seq=%d unacknowledged after %d retransmissions", f.pkt.Seq, f.tries))
		return
	}
	f.tries++
	s.met.retransmits.Inc()
	if s.cc != nil {
		s.cc.onTimeout()
	}
	s.transmit(f.pkt)
	s.arm(f)
}

// Ack processes an acknowledgment for seq. Duplicate or unknown ACKs are
// counted and ignored.
func (s *Sender) Ack(seq uint32) {
	f, ok := s.inflight[seq]
	if !ok {
		s.met.dupAcks.Inc()
		return
	}
	f.timer.Stop()
	delete(s.inflight, seq)
	s.met.acked.Inc()
	// RTT histogram under Karn's rule: retransmitted flights are ambiguous
	// (the ACK may answer any copy), so only clean flights are sampled.
	if f.tries == 0 {
		s.met.rtt.Record(int64(s.sim.Now() - f.sentAt))
	}
	s.met.tries.Record(int64(f.tries))
	ccGrew := false
	if s.cc != nil {
		before := s.cc.allow()
		s.cc.onAck()
		ccGrew = s.cc.allow() > before
	}
	// Advance the base over the acknowledged prefix.
	advanced := false
	for s.base != s.nextSeq {
		if _, live := s.inflight[s.base]; live {
			break
		}
		s.base++
		advanced = true
	}
	if advanced || ccGrew {
		s.spaceSig.Fire()
	}
	if len(s.inflight) == 0 {
		s.idleSig.Fire()
	}
}

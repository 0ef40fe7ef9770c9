package hostd

import (
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/wire"
)

// ctrlMsg wraps a control-channel message with its destination so the
// window's transmit callback can route (a control channel fans out to many
// hosts, unlike a data channel serving one task at a time).
type ctrlMsg struct {
	Dst  core.HostID
	Body any
}

// taskNotify announces a new aggregation task to a sender daemon (§3.1
// step ④): task ID, receiver address, and application context. Partition
// is the task's keyspace band (zero = whole keyspace) — senders must pack
// only keys the task's switch region actually aggregates.
type taskNotify struct {
	Task      core.TaskID
	Receiver  core.HostID
	Op        core.Op
	Partition keyspace.Partition
}

// taskRelease tells a sender daemon that the receiver's result for a task is
// final, so the sender may drop its retained failover replay history.
type taskRelease struct {
	Task core.TaskID
}

// ctrlChannel is the daemon's persistent control channel: one dedicated
// thread, reliable delivery via the same sliding-window machinery as data.
// Its receive loop is a kernel-callback state machine like the data
// channels' (see dataChannel).
type ctrlChannel struct {
	d      *Daemon
	flow   core.FlowKey
	win    *window.Sender
	rxQ    []*netsim.Frame
	rxSig  *sim.Signal
	thread *cpumodel.Thread

	// rxCur is the message being processed and rxFresh whether it is new
	// (not a duplicate). rxWakeFn, rxWorkedFn and rxAckFn are rxStep,
	// rxWorked and rxAck bound once.
	rxCur      *netsim.Frame
	rxFresh    bool
	rxWakeFn   func()
	rxWorkedFn func(any)
	rxAckFn    func(any)
}

// ctrlWindow is the control channel's (small) sliding window.
const ctrlWindow = 64

func newCtrlChannel(d *Daemon) *ctrlChannel {
	ch := &ctrlChannel{
		d:      d,
		flow:   core.FlowKey{Host: d.host, Channel: core.ChannelID(d.cfg.DataChannels)},
		rxSig:  sim.NewSignal(d.sim),
		thread: d.cpu.NewThread(),
	}
	// Control messages are far larger-timeout than data: they cross the
	// switch twice and are not latency critical.
	ch.win = window.NewSender(d.sim, ctrlWindow, 10*d.cfg.RetransmitTimeout, ch.transmit)
	ch.win.Instrument(d.tel, ch.flow.String())
	ch.rxWakeFn, ch.rxWorkedFn, ch.rxAckFn = ch.rxStep, ch.rxWorked, ch.rxAck
	d.sim.At(d.sim.Now(), ch.rxWakeFn)
	return ch
}

func (ch *ctrlChannel) transmit(pkt *wire.Packet) {
	msg := pkt.Ctrl.(ctrlMsg)
	ch.d.sendFrame(msg.Dst, pkt, 0)
}

// send reliably delivers a control message (blocks for window space).
func (ch *ctrlChannel) send(p *sim.Proc, dst core.HostID, body any) {
	pkt := &wire.Packet{Type: wire.TypeCtrl, Flow: ch.flow, Ctrl: ctrlMsg{Dst: dst, Body: body}}
	ch.win.SendBlocking(p, pkt)
}

func (ch *ctrlChannel) enqueue(f *netsim.Frame) {
	ch.rxQ = append(ch.rxQ, f)
	ch.rxSig.Fire()
}

// rxStep runs the control receive loop until it has to wait: stale
// duplicates are dropped inline, every other message holds the control
// thread for its processing cost (resuming at rxWorked), and an empty queue
// subscribes for more.
func (ch *ctrlChannel) rxStep() {
	for len(ch.rxQ) > 0 {
		f := ch.rxQ[0]
		ch.rxQ[0] = nil
		ch.rxQ = ch.rxQ[1:]
		if verdict := ch.d.dedupFor(f.Pkt.Flow).Observe(f.Pkt.Seq); verdict != window.Stale {
			ch.rxCur, ch.rxFresh = f, verdict == window.Fresh
			ch.thread.RunCall(cpumodel.PacketIOCost, ch.rxWorkedFn, nil)
			return
		}
		f.Release()
	}
	ch.rxSig.Subscribe(ch.rxWakeFn)
}

// rxWorked handles a message once its CPU cost is paid: a fresh one is
// delivered, then acknowledged after the local queueing delay.
func (ch *ctrlChannel) rxWorked(any) {
	if !ch.rxFresh {
		ch.rxAck(nil)
		return
	}
	msg := ch.rxCur.Pkt.Ctrl.(ctrlMsg)
	switch body := msg.Body.(type) {
	case taskNotify:
		ch.d.onNotify(body)
	case taskRelease:
		ch.d.onRelease(body.Task)
	default:
		// Unknown control bodies are ignored (forward compatibility).
	}
	// A small queueing delay stands in for the local message queue to the
	// application (§3.1 step ⑤).
	ch.d.sim.AfterCall(time.Microsecond, ch.rxAckFn, nil)
}

// rxAck acknowledges the current message and resumes the receive loop.
func (ch *ctrlChannel) rxAck(any) {
	f := ch.rxCur
	ch.rxCur = nil
	pkt := f.Pkt
	ack := wire.NewPacket()
	ack.Type = wire.TypeAck
	ack.AckFor = wire.TypeCtrl
	ack.Task = pkt.Task
	ack.Flow = pkt.Flow
	ack.Seq = pkt.Seq
	ch.d.sendOwned(pkt.Flow.Host, ack, 0)
	// Nothing here retains the packet (ctrl bodies are plain values and the
	// ack is a fresh packet), so the frame can go back to the pool.
	f.Release()
	ch.rxStep()
}

package hostd

import (
	"sort"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/wire"
)

// sendTask is one application stream queued on a data channel. Exactly one
// of stream/timed is set: timed streams are paced on the sim clock (trace
// replay), plain streams are drained back-to-back.
type sendTask struct {
	id       core.TaskID
	receiver core.HostID
	stream   core.Stream
	timed    core.TimedStream
	// part is the task's keyspace band from the receiver's notification
	// (zero = whole keyspace): the packetizer routes only this band's keys
	// into switch slots.
	part     keyspace.Partition
	done     *sim.Signal
	finished bool
	// err records a transport abort (MaxRetries exhausted); the stream was
	// not fully delivered.
	err error
	// history retains every sent data packet for failover replay (failover
	// mode only); released when the receiver confirms the task result.
	history []historyRec
}

// historyRec is one retained data packet plus the switch incarnation whose
// reliability state covered its first transmission. absorbEpoch is the
// channel's registration epoch at send time: the only incarnation that can
// have absorbed the packet's tuples into SRAM (a rebooted switch classifies
// old sequence numbers as observed and forwards them whole; an unregistered
// flow — absorbEpoch 0 — is forwarded whole unconditionally). Replay after a
// reboot must skip records whose absorbEpoch is the incarnation the flow just
// re-registered on: that state did not die, so the absorbed tuples are still
// in the live region the receiver will fetch at teardown, and replaying them
// would double-count.
type historyRec struct {
	pkt         *wire.Packet
	absorbEpoch uint32
}

// SendHandle lets the sending application wait for its stream to be fully
// aggregated and acknowledged (data + FIN).
type SendHandle struct{ t *sendTask }

// Wait blocks until the task's FIN is acknowledged (or the transport
// aborts; check Err).
func (h *SendHandle) Wait(p *sim.Proc) {
	for !h.t.finished {
		p.Wait(h.t.done)
	}
}

// Done reports whether the stream completed (successfully or not).
func (h *SendHandle) Done() bool { return h.t.finished }

// Err returns the transport abort error, or nil if the stream was fully
// delivered.
func (h *SendHandle) Err() error { return h.t.err }

// dataChannel is one duplex persistent channel: a send loop draining queued
// tasks through the sliding window, and a receive loop processing inbound
// flow packets, each charged to the channel's CPU thread.
//
// Both loops are poll-mode, run-to-completion state machines driven by
// kernel callbacks (the DPDK loops of §5.1), not processes. Every point
// where a process would park — a signal wait, a sleep, a queued core — is
// exactly one kernel event at the same place and time, and work that needs
// no wait (the next queued frame, a free core, a window with room) runs
// inline in the same event, so a run's event order is that of the
// process-style loops it replaces.
type dataChannel struct {
	d    *Daemon
	flow core.FlowKey
	win  *window.Sender

	queue    []*sendTask
	queueSig *sim.Signal
	curDst   core.HostID

	// retained maps tasks whose history may still need replaying after a
	// switch reboot (failover mode only).
	retained map[core.TaskID]*sendTask
	// recoverReq, when non-zero, asks the send loop to run recovery for
	// that recovery generation at its next safe point (set synchronously by
	// observeEpoch; recovery runs inline so no concurrent send can race it).
	recoverReq   uint32
	recoveredGen uint32
	// regEpoch is the epoch of the switch incarnation this channel's flow is
	// currently registered on (0 = unregistered, e.g. flow table full after a
	// reboot). Maintained by the registration RPCs, which return the live
	// incarnation's epoch; recorded per packet in sendTask.history.
	regEpoch uint32

	rxQ   []*netsim.Frame
	rxSig *sim.Signal

	txThread *cpumodel.Thread
	rxThread *cpumodel.Thread

	// Send state machine (txStep): the resume point, the task being served
	// and its packetizer, the packet being sent, and the recovery cursor.
	tx       txState
	txTask   *sendTask
	txPz     *packetizer
	txPkt    *wire.Packet
	txTuples int
	rc       recoverCursor
	// txWakeFn / txResumeFn are txStep bound once, as a signal subscriber
	// and as an event / thread continuation.
	txWakeFn   func()
	txResumeFn func(any)

	// Receive state machine (rxStep): the frame whose processing cost the
	// rx thread is paying, and what to merge once it is paid.
	rxCur   *netsim.Frame
	rxTask  *recvTask
	rxKVs   []core.KV // decode scratch, reused per frame
	rxLong  int
	rxMerge bool
	// rxWakeFn / rxDoneFn are rxStep and rxDone bound once.
	rxWakeFn func()
	rxDoneFn func(any)
}

// txState is the send state machine's resume point. Each names the code
// that runs when the machine resumes there.
type txState uint8

const (
	txIdle       txState = iota // recover if asked, else take the next task or wait for one
	txNext                      // pull the next packet from the task's packetizer
	txPktRing                   // packet CPU work done: TX ring backpressure
	txPktStamp                  // stamp and count the packet
	txPktSend                   // send it through the window
	txPktDone                   // restore curDst after a possible recovery
	txDrain                     // stream exhausted: wait for the window to drain
	txFinRecover                // recover before cutting the FIN
	txFinCPU                    // charge the FIN's CPU work
	txFinSend                   // send the FIN
	txFinIdle                   // wait for the FIN's ACK
	txEnd                       // finish the task
	// Failover recovery (recoverStep), entered from a maybeRecover point
	// and left to rc.ret.
	rcLoop       // start the pending recovery generation, or return
	rcDrain      // drain the old epoch's in-flight packets
	rcRegister   // re-register the flow after the control RPC latency
	rcReplay     // replay the task's next history record
	rcReplaySend // send the replay packet once its CPU work is done
	rcReFinIdle  // finished task: wait for its replays' ACKs
	rcReFinSend  // send its re-FIN
	rcTaskIdle   // wait for the task's replay traffic to drain
)

// recoverCursor is the position of an in-progress recovery: the generation,
// the retained tasks being replayed, and where to resume the send loop.
type recoverCursor struct {
	gen   uint32
	ids   []core.TaskID
	task  int
	t     *sendTask
	hist  []historyRec
	rec   int
	saved core.HostID
	ret   txState
}

func newDataChannel(d *Daemon, flow core.FlowKey) *dataChannel {
	ch := &dataChannel{
		d:        d,
		flow:     flow,
		queueSig: sim.NewSignal(d.sim),
		rxSig:    sim.NewSignal(d.sim),
		retained: make(map[core.TaskID]*sendTask),
		txThread: d.cpu.NewThread(),
		rxThread: d.cpu.NewThread(),
	}
	ch.win = window.NewSender(d.sim, d.cfg.Window, d.cfg.RetransmitTimeout, ch.transmit)
	ch.win.Instrument(d.tel, flow.String())
	if d.cfg.CongestionControl {
		ch.win.EnableCongestionControl()
	}
	if d.cfg.MaxRetries > 0 {
		ch.win.SetMaxRetries(d.cfg.MaxRetries)
	}
	if d.cfg.Failover {
		ch.win.EnableBackoff()
	}
	ch.txWakeFn, ch.txResumeFn = ch.txStep, ch.txResume
	ch.rxWakeFn, ch.rxDoneFn = ch.rxStep, ch.rxDone
	// Both loops start at boot time, each on an event of its own.
	d.sim.At(d.sim.Now(), ch.txWakeFn)
	d.sim.At(d.sim.Now(), ch.rxWakeFn)
	return ch
}

// transmit puts a window packet on the wire toward the current task's
// receiver (tasks are served FIFO and serialized per channel — including
// inline failover replay — so curDst is stable while any packet of a task
// is in flight).
func (ch *dataChannel) transmit(pkt *wire.Packet) {
	good := 0
	switch pkt.Type {
	case wire.TypeData:
		good = pkt.LiveTuples() * 2 * ch.d.cfg.KPartBytes
	case wire.TypeLongKey:
		for _, kv := range pkt.Long {
			good += len(kv.Key) + 8
		}
	}
	ch.d.sendFrame(ch.curDst, pkt, good)
}

// enqueue queues a task for sending.
func (ch *dataChannel) enqueue(t *sendTask) {
	ch.queue = append(ch.queue, t)
	ch.queueSig.Fire()
}

// txResume is txStep as an event or CPU-work continuation.
func (ch *dataChannel) txResume(any) { ch.txStep() }

// maybeRecover enters failover recovery if one is pending, to resume at ret
// once it is done, and otherwise goes straight to ret. It is used only
// between sends, so the window is never driven by two loops at once.
func (ch *dataChannel) maybeRecover(ret txState) {
	if ch.recoverReq != 0 {
		ch.rc.ret = ret
		ch.tx = rcLoop
		return
	}
	ch.tx = ret
}

// txStep runs the send loop from its resume point until it has to wait: it
// serves queued tasks in FIFO order — packetize, window-send, FIN — and
// replays retained history when a switch reboot asks for recovery. Every
// return parks the loop on exactly one signal subscription, event, or CPU
// continuation.
func (ch *dataChannel) txStep() {
	d := ch.d
	for {
		switch ch.tx {
		case txIdle:
			if ch.recoverReq != 0 {
				ch.maybeRecover(txIdle)
				continue
			}
			if len(ch.queue) == 0 {
				ch.queueSig.Subscribe(ch.txWakeFn)
				return
			}
			task := ch.queue[0]
			ch.queue = ch.queue[1:]
			ch.txTask = task
			ch.curDst = task.receiver
			if d.failover {
				ch.retained[task.id] = task
			}
			if task.timed != nil {
				// Timed replay: arrival offsets anchor at this moment — the
				// channel is the task's ingress, so "stream start" is when
				// the channel begins serving it.
				stream, stall := paceStream(d.sim, task.timed)
				ch.txPz = newPacedPacketizer(d.layout, stream, stall)
			} else {
				ch.txPz = newPacketizer(d.layout, task.stream)
			}
			ch.txPz.part = task.part
			ch.tx = txNext

		case txNext:
			pkt, tuples, ok := ch.txPz.next()
			if !ok {
				if ch.txPz.waiting {
					// Paced source: nothing due yet and nothing buffered.
					if due := ch.txPz.due; due > d.sim.Now() {
						d.sim.AtCall(due, ch.txResumeFn, nil)
						return
					}
					continue
				}
				ch.txPz = nil
				ch.tx = txDrain
				continue
			}
			ch.txPkt, ch.txTuples = pkt, tuples
			// PacketIOCost covers the whole per-packet lifecycle on the
			// channel thread — shared-memory read, slot marshalling
			// (SIMD-copied in batches on real DPDK), descriptor work, and
			// ACK bookkeeping — keeping the calibrated 9.35 Mpps per
			// channel independent of tuples per packet (Fig. 8(a)'s
			// PPS-bound linear region).
			ch.tx = txPktRing
			ch.txThread.RunCall(cpumodel.PacketIOCost, ch.txResumeFn, nil)
			return

		case txPktRing:
			ch.tx = txPktStamp
			// Bounded TX ring: never queue more wire time at the NIC than
			// a fraction of the retransmission timeout, or acknowledgments
			// cannot outrun spurious timeouts (DPDK descriptor-ring
			// backpressure). Drain with hysteresis — down to half the
			// bound, not to empty — so the wire never idles at line rate.
			if bound := d.cfg.RetransmitTimeout / 4; d.net.Uplink(d.host).Backlog() > bound {
				if at := d.net.Uplink(d.host).NextFree().Add(-bound / 2); at > d.sim.Now() {
					d.sim.AtCall(at, ch.txResumeFn, nil)
					return
				}
			}

		case txPktStamp:
			pkt, task, tuples := ch.txPkt, ch.txTask, ch.txTuples
			pkt.Task = task.id
			pkt.Flow = ch.flow
			d.met.packetsSent.Inc()
			d.met.tuplesSent.Add(int64(tuples))
			d.met.batchTuples.Record(int64(tuples))
			if pkt.Type == wire.TypeLongKey {
				d.met.longTuplesSent.Add(int64(tuples))
			} else {
				d.slotFillCounter(pkt.Bitmap.Count()).Inc()
			}
			ch.tx = txPktSend

		case txPktSend:
			done, err := ch.win.TrySend(ch.txPkt, ch.txWakeFn)
			if !done {
				return
			}
			pkt, task := ch.txPkt, ch.txTask
			ch.txPkt = nil
			if err != nil {
				task.err = err
				ch.tx = txDrain
				continue
			}
			if d.failover && pkt.Type == wire.TypeData {
				// The sender-side packet struct is never mutated by the
				// network (frames clone at delivery), so the original slots
				// and liveness bitmap are intact for replay. regEpoch tags
				// the incarnation whose reliability state covered the first
				// transmission (see historyRec).
				task.history = append(task.history, historyRec{pkt, ch.regEpoch})
			}
			ch.maybeRecover(txPktDone)

		case txPktDone:
			// Recovery may have changed curDst while replaying other
			// retained tasks; restore it for this task's next packet.
			ch.curDst = ch.txTask.receiver
			ch.tx = txNext

		case txDrain:
			if task := ch.txTask; task.err == nil {
				done, err := ch.win.TryWaitIdle(ch.txWakeFn)
				if !done {
					return
				}
				task.err = err
			}
			ch.tx = txFinRecover

		case txFinRecover:
			if ch.txTask.err != nil {
				ch.tx = txEnd
				continue
			}
			// Replay first if a reboot interleaved, so the FIN generation
			// below post-dates every replayed packet (teardown ordering).
			ch.maybeRecover(txFinCPU)

		case txFinCPU:
			task := ch.txTask
			ch.curDst = task.receiver
			// FIN: stream complete and fully acknowledged (§3.1 teardown).
			// OrigSeq carries the FIN generation — the epoch the sender
			// observed when it cut the FIN.
			ch.txPkt = &wire.Packet{Type: wire.TypeFin, Task: task.id, Flow: ch.flow, OrigSeq: d.epoch}
			ch.tx = txFinSend
			ch.txThread.RunCall(cpumodel.PacketIOCost, ch.txResumeFn, nil)
			return

		case txFinSend:
			done, err := ch.win.TrySend(ch.txPkt, ch.txWakeFn)
			if !done {
				return
			}
			ch.txPkt = nil
			if err != nil {
				ch.txTask.err = err
				ch.tx = txEnd
				continue
			}
			ch.tx = txFinIdle

		case txFinIdle:
			done, err := ch.win.TryWaitIdle(ch.txWakeFn)
			if !done {
				return
			}
			ch.txTask.err = err
			ch.tx = txEnd

		case txEnd:
			task := ch.txTask
			ch.txTask = nil
			if task.err != nil {
				// Transport abort: drop the in-flight packets and restore
				// the window so subsequent tasks on this channel still run.
				// Sequence numbers are not reused, so receiver dedup state
				// stays valid.
				ch.win.Reset()
			}
			task.finished = true
			task.done.Fire()
			ch.tx = txIdle

		default:
			if !ch.recoverStep() {
				return
			}
		}
	}
}

// recoverStep runs one state of failover recovery and reports whether the
// send loop continues inline (false: it parked). Recovery replays this
// channel's retained history after a switch reboot (failover §recovery):
// drain the window, re-register the flow at its current sequence position,
// then resend every retained task's data packets as TypeReplay (host-only
// bypass) and re-FIN finished tasks. It runs inside the send loop, so it is
// the only driver of the window.
func (ch *dataChannel) recoverStep() bool {
	d, rc := ch.d, &ch.rc
	switch ch.tx {
	case rcLoop:
		if ch.recoverReq == 0 {
			ch.tx = rc.ret
			return true
		}
		rc.gen = ch.recoverReq
		ch.recoverReq = 0
		ch.tx = rcDrain

	case rcDrain:
		// Drain in-flight packets of the old epoch first: they keep
		// retransmitting and, with the flow unregistered on the rebooted
		// switch, stream through whole to the receiver, which merges and
		// ACKs them. Re-registering before they drain would misclassify
		// them against fresh reliability state.
		done, err := ch.win.TryWaitIdle(ch.txWakeFn)
		if !done {
			return false
		}
		if err != nil {
			ch.win.Reset()
		}
		if rc.gen != d.recoveryGen {
			ch.recoverReq = d.recoveryGen
			ch.tx = rcLoop
			return true
		}
		ch.tx = rcRegister
		d.sim.AfterCall(cpumodel.ControlRPCLatency, ch.txResumeFn, nil)
		return false

	case rcRegister:
		if ep, err := d.ctrl.RegisterFlowAt(ch.flow, ch.win.NextSeq()); err != nil {
			// Flow table full on the rebooted switch: stay unregistered.
			// Packets forward host-only; correctness is unaffected.
			ch.regEpoch = 0
		} else {
			ch.regEpoch = ep
			// The RPC may have landed on an incarnation NEWER than the one
			// this recovery generation was triggered by (the switch rebooted
			// again before the daemon noticed). Feed the epoch back so the
			// daemon schedules the follow-up recovery now instead of waiting
			// for a stamped packet.
			d.observeEpoch(ep)
		}
		rc.saved = ch.curDst
		ids := rc.ids[:0]
		for id := range ch.retained {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		rc.ids = ids
		rc.task = -1
		ch.nextRecoverTask()

	case rcReplay:
		for rc.rec < len(rc.hist) {
			rec := rc.hist[rc.rec]
			if rec.absorbEpoch != 0 && rec.absorbEpoch == ch.regEpoch {
				// First transmitted while the flow was registered on the
				// incarnation we just re-registered on: the switch state
				// that absorbed it did not die. Its absorbed tuples are
				// still in the live region (fetched at teardown) and its
				// residue was claimed at the receiver — replaying here
				// would double-count.
				rc.rec++
				continue
			}
			orig := rec.pkt
			ch.txPkt = &wire.Packet{
				Type:    wire.TypeReplay,
				Task:    rc.t.id,
				Flow:    ch.flow,
				OrigSeq: orig.Seq,
				Bitmap:  orig.Bitmap,
				Slots:   orig.Slots,
			}
			ch.tx = rcReplaySend
			ch.txThread.RunCall(cpumodel.PacketIOCost, ch.txResumeFn, nil)
			return false
		}
		ch.replayDone()

	case rcReplaySend:
		done, err := ch.win.TrySend(ch.txPkt, ch.txWakeFn)
		if !done {
			return false
		}
		ch.txPkt = nil
		if err != nil {
			ch.replayDone()
			return true
		}
		d.met.replaysSent.Inc()
		rc.rec++
		ch.tx = rcReplay

	case rcReFinIdle:
		// Re-FIN after the replays are acknowledged so the receiver
		// processes the new-generation FIN last.
		done, err := ch.win.TryWaitIdle(ch.txWakeFn)
		if !done {
			return false
		}
		if err != nil {
			ch.tx = rcTaskIdle
			return true
		}
		ch.txPkt = &wire.Packet{Type: wire.TypeFin, Task: rc.t.id, Flow: ch.flow, OrigSeq: d.epoch}
		ch.tx = rcReFinSend
		ch.txThread.RunCall(cpumodel.PacketIOCost, ch.txResumeFn, nil)
		return false

	case rcReFinSend:
		done, _ := ch.win.TrySend(ch.txPkt, ch.txWakeFn)
		if !done {
			return false
		}
		ch.txPkt = nil
		ch.tx = rcTaskIdle

	case rcTaskIdle:
		done, err := ch.win.TryWaitIdle(ch.txWakeFn)
		if !done {
			return false
		}
		if err != nil {
			ch.win.Reset()
		}
		ch.nextRecoverTask()
	}
	return true
}

// replayDone ends a retained task's replay: a finished task is re-FINed,
// then the task's replay traffic drains.
func (ch *dataChannel) replayDone() {
	if t := ch.rc.t; t.finished && t.err == nil {
		ch.tx = rcReFinIdle
		return
	}
	ch.tx = rcTaskIdle
}

// nextRecoverTask advances recovery to the next retained task, or, past the
// last one, finishes this generation and loops for the next.
func (ch *dataChannel) nextRecoverTask() {
	rc := &ch.rc
	rc.task++
	if rc.task == len(rc.ids) {
		rc.t, rc.hist = nil, nil
		ch.curDst = rc.saved
		ch.d.channelRecovered(ch, rc.gen)
		ch.tx = rcLoop
		return
	}
	rc.t = ch.retained[rc.ids[rc.task]]
	ch.curDst = rc.t.receiver
	rc.hist, rc.rec = rc.t.history, 0
	ch.tx = rcReplay
}

// enqueueRx queues an inbound frame for receive-side processing.
func (ch *dataChannel) enqueueRx(f *netsim.Frame) {
	ch.rxQ = append(ch.rxQ, f)
	ch.rxSig.Fire()
}

// rxStep runs the receive loop until it has to wait: it processes queued
// inbound flow packets on the channel thread, charging each its CPU cost
// (resuming at rxDone), and subscribes for more when the queue is empty.
func (ch *dataChannel) rxStep() {
	for len(ch.rxQ) > 0 {
		f := ch.rxQ[0]
		ch.rxQ[0] = nil
		ch.rxQ = ch.rxQ[1:]
		if cost := ch.d.beginInbound(ch, f); cost > 0 {
			ch.rxCur = f
			ch.rxThread.RunCall(cost, ch.rxDoneFn, nil)
			return
		}
		f.Release()
	}
	ch.rxSig.Subscribe(ch.rxWakeFn)
}

// rxDone finishes the frame whose CPU cost has been paid and resumes the
// receive loop.
func (ch *dataChannel) rxDone(any) {
	f := ch.rxCur
	ch.rxCur = nil
	ch.d.finishInbound(ch, f)
	// finishInbound copies everything it keeps (residue tuples are decoded
	// into fresh keys, long-key strings are immutable), so the frame and
	// its packet can be recycled here.
	f.Release()
	ch.rxStep()
}

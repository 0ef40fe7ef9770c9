package hostd

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/wire"
)

// RecvTaskStats counts receiver-side activity for one task. It is a
// point-in-time view over the task's telemetry counters (metrics.go).
type RecvTaskStats struct {
	DataPackets   int64 // data packets processed (fresh)
	ResidueTuples int64 // tuples aggregated at the host
	LongTuples    int64 // long-key tuples (subset of ResidueTuples)
	ReplayTuples  int64 // tuples recovered from failover replays (subset)
	SwitchEntries int64 // aggregator entries merged from fetches
	Swaps         int64 // shadow-copy swaps completed
	// Degraded is how long the task ran without switch aggregation after a
	// region revocation (zero if the region was never revoked).
	Degraded time.Duration
}

// pktID identifies one sent data packet across the INA → bypass transition:
// a TypeData packet by its own (flow, seq), a TypeReplay by (flow, OrigSeq).
type pktID struct {
	flow core.FlowKey
	seq  uint32
}

// recvTask is the receiver-side state of one aggregation task: the shared
// memory segment (result map), FIN tracking, and the shadow-copy machinery.
type recvTask struct {
	d    *Daemon
	spec core.TaskSpec
	// alloc describes the switch allocation (partition + aggregation
	// points); the zero value is the single-switch legacy shape.
	alloc AllocInfo

	result core.Result // the task's shared-memory segment
	// finned records, per sender, the generation (sender epoch) of its
	// latest FIN. A FIN only counts toward completion if its generation
	// matches the receiver's current epoch: after a switch reboot, stale
	// FINs cut before the sender replayed its history must not trigger the
	// final fetch (the replays have not arrived yet).
	finned map[core.HostID]uint32
	finSig *sim.Signal

	// merged is the per-packet reconciliation ledger (failover mode): which
	// slot bits of each sent packet this receiver has already counted. A
	// replay contributes only its unclaimed bits, so nothing double-counts
	// across the INA → bypass transition.
	merged map[pktID]wire.Bitmap

	pktsSinceSwap int
	swapping      bool
	swapDone      *sim.Signal
	swapAckSig    *sim.Signal
	lastSwapAck   uint32
	swapSeqNum    uint32
	activeCopy    int

	noRegion bool
	// regionEpoch is the switch incarnation under which the task's region
	// was (re-)allocated; recovery skips tasks already re-attached.
	regionEpoch uint32
	// switchCommitted marks the point after which switch state has been (or
	// is being) folded into the result; later replays are ignored.
	switchCommitted bool
	// revoked/draining track a controller region revocation (failover.go).
	revoked   bool
	revokedAt sim.Time
	draining  bool

	tearingDown bool
	completed   bool
	done        *sim.Signal

	met recvMetrics
	// degraded is how long the task ran host-only after a region
	// revocation; set once at teardown.
	degraded time.Duration
}

// claimBits returns the not-yet-counted subset of b for packet (fk, seq) and
// records it as counted.
func (t *recvTask) claimBits(fk core.FlowKey, seq uint32, b wire.Bitmap) wire.Bitmap {
	id := pktID{fk, seq}
	prev := t.merged[id]
	eff := b &^ prev
	t.merged[id] = prev | b
	return eff
}

// allFinned reports whether every sender has FINished under the current
// switch incarnation.
func (t *recvTask) allFinned() bool {
	for _, s := range t.spec.Senders {
		if t.finned[s] < t.d.epoch {
			return false
		}
	}
	return true
}

// RecvHandle lets the receiving application wait for task completion and
// read the result from the shared-memory segment (§3.1 steps ⑩–⑪).
type RecvHandle struct{ t *recvTask }

// Wait blocks until the aggregation completes and returns the final result.
func (h *RecvHandle) Wait(p *sim.Proc) core.Result {
	for !h.t.completed {
		p.Wait(h.t.done)
	}
	return h.t.result
}

// Done reports whether the task completed.
func (h *RecvHandle) Done() bool { return h.t.completed }

// Stats returns a snapshot of the receiver-side counters.
func (h *RecvHandle) Stats() RecvTaskStats {
	t := h.t
	return RecvTaskStats{
		DataPackets:   t.met.dataPackets.Value(),
		ResidueTuples: t.met.residueTuples.Value(),
		LongTuples:    t.met.longTuples.Value(),
		ReplayTuples:  t.met.replayTuples.Value(),
		SwitchEntries: t.met.switchEntries.Value(),
		Swaps:         t.met.swaps.Value(),
		Degraded:      t.degraded,
	}
}

// Submit starts an aggregation task with this daemon's host as the receiver
// (§3.1 steps ①–⑤): it allocates the shared-memory segment, requests a
// switch memory region from the controller, and notifies every sender-side
// daemon over the control channel. It must run in process context (the
// control-plane RPC blocks).
func (d *Daemon) Submit(p *sim.Proc, spec core.TaskSpec) (*RecvHandle, error) {
	if spec.Receiver != d.host {
		return nil, fmt.Errorf("hostd: task %d receiver is host %d, submitted at %d", spec.ID, spec.Receiver, d.host)
	}
	if _, dup := d.recvTasks[spec.ID]; dup {
		return nil, fmt.Errorf("hostd: task %d already submitted", spec.ID)
	}
	t := &recvTask{
		d:          d,
		spec:       spec,
		result:     make(core.Result),
		finned:     make(map[core.HostID]uint32),
		noRegion:   spec.Rows < 0,
		swapDone:   sim.NewSignal(d.sim),
		swapAckSig: sim.NewSignal(d.sim),
		finSig:     sim.NewSignal(d.sim),
		done:       sim.NewSignal(d.sim),
		met:        d.newRecvMetrics(spec.ID),
	}
	if d.failover {
		t.merged = make(map[pktID]wire.Bitmap)
	}
	d.recvTasks[spec.ID] = t
	if !t.noRegion {
		p.Sleep(cpumodel.ControlRPCLatency)
		info, err := d.ctrl.AllocRegion(spec)
		if err != nil {
			delete(d.recvTasks, spec.ID)
			return nil, err
		}
		t.alloc = info
		t.regionEpoch = d.epoch
	}
	if d.failover {
		d.bumpActivity(1)
	}
	// Notify sender daemons (reliably, over the control channel); local
	// senders are notified directly.
	n := taskNotify{Task: spec.ID, Receiver: d.host, Op: spec.Op, Partition: t.alloc.Partition}
	for _, s := range spec.Senders {
		if s == d.host {
			d.onNotify(n)
		} else {
			d.ctrlCh.send(p, s, n)
		}
	}
	return &RecvHandle{t}, nil
}

// SubmitSend registers a sender-side stream for a task (§3.1 steps ⑥–⑦).
// The stream starts flowing once the receiver's notification has arrived;
// either order works.
func (d *Daemon) SubmitSend(task core.TaskID, stream core.Stream) *SendHandle {
	return d.submitSend(&sendTask{id: task, stream: stream, done: sim.NewSignal(d.sim)})
}

// SubmitSendTimed registers a timed sender-side stream for a task: tuples
// become available to the data channel at their arrival offsets (anchored
// at the moment the channel starts serving the task) instead of
// back-to-back, so the whole protocol — packetization, windowing,
// congestion — runs under the trace's temporal shape.
func (d *Daemon) SubmitSendTimed(task core.TaskID, ts core.TimedStream) *SendHandle {
	return d.submitSend(&sendTask{id: task, timed: ts, done: sim.NewSignal(d.sim)})
}

func (d *Daemon) submitSend(st *sendTask) *SendHandle {
	if n, ok := d.notified[st.id]; ok {
		d.activateSend(st, n)
	} else {
		d.sendReady[st.id] = st
	}
	return &SendHandle{st}
}

// onNotify handles a task notification at a sender daemon.
func (d *Daemon) onNotify(n taskNotify) {
	if st, ok := d.sendReady[n.Task]; ok {
		delete(d.sendReady, n.Task)
		d.activateSend(st, n)
		return
	}
	d.notified[n.Task] = n
}

// activateSend assigns the task to a data channel by hash(ID) (§3.1).
// Multi-tenant daemons with channel ranges installed (SetTenantChannels)
// hash within the owning tenant's range instead, so one tenant's backlog
// never queues behind another's; daemons without ranges keep the exact
// legacy assignment.
func (d *Daemon) activateSend(st *sendTask, n taskNotify) {
	st.receiver = n.Receiver
	st.part = n.Partition
	if d.failover {
		if _, dup := d.activeSends[st.id]; !dup {
			d.activeSends[st.id] = st
			d.bumpActivity(1)
		}
	}
	ch := d.channels[int(st.id)%len(d.channels)]
	if r, ok := d.tenantCh[st.id.Tenant()]; ok {
		ch = d.channels[r.lo+int(st.id)%r.n]
	}
	ch.enqueue(st)
}

// SetTenantChannels dedicates the contiguous data-channel range [lo, lo+n)
// to a tenant's send tasks. Installing any range switches task→channel
// assignment to per-tenant hashing for the tenants covered; tenants without
// a range (and daemons where this is never called) use the legacy global
// hash. Call at cluster construction time, before tasks flow.
func (d *Daemon) SetTenantChannels(tenant core.TenantID, lo, n int) error {
	if lo < 0 || n <= 0 || lo+n > len(d.channels) {
		return fmt.Errorf("hostd: tenant %d channel range [%d,%d) outside 0..%d", tenant, lo, lo+n, len(d.channels))
	}
	if d.tenantCh == nil {
		d.tenantCh = make(map[core.TenantID]chRange)
	}
	d.tenantCh[tenant] = chRange{lo: lo, n: n}
	return nil
}

// beginInbound classifies one flow packet on a channel's receive thread
// and decodes its tuples into the channel's scratch. It returns the CPU
// cost of processing the packet — zero for a stale duplicate, which needs
// none — and finishInbound completes the packet once the cost is paid.
func (d *Daemon) beginInbound(ch *dataChannel, f *netsim.Frame) time.Duration {
	pkt := f.Pkt
	// The transport ACK went out at arrival (HandleFrame); here the packet
	// is classified and merged exactly once.
	verdict := d.dedupFor(pkt.Flow).Observe(pkt.Seq)
	if verdict == window.Stale {
		return 0
	}
	if verdict == window.Duplicate {
		ch.rxMerge = false
		return cpumodel.PacketIOCost
	}

	t := d.recvTasks[pkt.Task]
	kvs := ch.rxKVs[:0]
	longTuples := 0
	switch pkt.Type {
	case wire.TypeData:
		eff := pkt.Bitmap
		if d.failover && t != nil && !t.completed {
			eff = t.claimBits(pkt.Flow, pkt.Seq, pkt.Bitmap)
		}
		kvs = d.decodeResidueBits(kvs, pkt, eff)
	case wire.TypeReplay:
		// Failover replay: merge only the bits not already counted from the
		// original packet's residue path, and nothing at all once switch
		// state has been committed (the replayed tuples were either merged
		// then or surrendered by the pre-reboot switch — never both).
		if t != nil && !t.completed && !t.switchCommitted && t.merged != nil {
			eff := t.claimBits(pkt.Flow, pkt.OrigSeq, pkt.Bitmap)
			kvs = d.decodeResidueBits(kvs, pkt, eff)
		}
	case wire.TypeLongKey:
		for _, lk := range pkt.Long {
			kvs = append(kvs, core.KV{Key: lk.Key, Val: lk.Val})
		}
		longTuples = len(kvs)
	}
	ch.rxKVs, ch.rxTask, ch.rxLong, ch.rxMerge = kvs, t, longTuples, true
	return cpumodel.PacketIOCost + time.Duration(len(kvs))*cpumodel.HostAggregateCost
}

// finishInbound merges the tuples beginInbound decoded from f into their
// task's result, once the receive thread has paid their CPU cost.
func (d *Daemon) finishInbound(ch *dataChannel, f *netsim.Frame) {
	if !ch.rxMerge {
		return // duplicate: the cost was the whole of it
	}
	pkt, t, kvs, longTuples := f.Pkt, ch.rxTask, ch.rxKVs, ch.rxLong
	ch.rxTask = nil
	d.met.packetsReceived.Inc()

	if t != nil && !t.completed {
		for _, kv := range kvs {
			t.result.MergeKV(kv, t.spec.Op)
		}
		t.met.residueTuples.Add(int64(len(kvs)))
		t.met.longTuples.Add(int64(longTuples))
		d.met.residueTuples.Add(int64(len(kvs)))
		switch pkt.Type {
		case wire.TypeData:
			t.met.dataPackets.Inc()
			t.pktsSinceSwap++
			t.maybeSwap()
		case wire.TypeReplay:
			t.met.replayTuples.Add(int64(len(kvs)))
			d.met.replayTuplesMerged.Add(int64(len(kvs)))
			d.tr.Emit(telemetry.CompHostd, "replay_merged", int64(pkt.Task), int64(pkt.OrigSeq), int64(len(kvs)))
		case wire.TypeFin:
			t.onFin(pkt.Flow.Host, pkt.OrigSeq)
		}
	}
}

// onFin records a sender's FIN with its generation; once every sender has
// finished under the current switch incarnation, teardown begins (§3.1
// steps ⑨–⑫).
func (t *recvTask) onFin(sender core.HostID, gen uint32) {
	if gen == 0 {
		gen = 1 // pre-failover senders carry no generation
	}
	if t.finned[sender] < gen {
		t.finned[sender] = gen
	}
	t.finSig.Fire()
	if !t.allFinned() || t.tearingDown {
		return
	}
	t.tearingDown = true
	t.d.sim.Spawn(fmt.Sprintf("teardown-task%d", t.spec.ID), t.teardown)
}

// teardown fetches the remaining switch state, merges it with the local
// result, and releases the switch region. Under failover the loop re-arms:
// a switch reboot observed mid-fetch invalidates the FIN set (senders will
// replay and re-FIN under the new epoch), and the fetched entries of the
// dead incarnation are discarded.
func (t *recvTask) teardown(p *sim.Proc) {
	for {
		if !t.allFinned() {
			p.Wait(t.finSig)
			continue
		}
		if t.swapping {
			p.Wait(t.swapDone)
			continue
		}
		if t.draining {
			p.Wait(t.finSig)
			continue
		}
		if t.noRegion || t.switchCommitted {
			break
		}
		e := t.d.epoch
		copies := 1
		if t.d.cfg.ShadowCopy {
			copies = 2
		}
		var all []wire.FetchEntry
		stale := false
		for pi, point := range t.aggPoints() {
			for c := 0; c < copies; c++ {
				entries := t.d.fetchEntries(p, t.spec.ID, c, false, point)
				if t.d.epoch != e {
					stale = true
					break
				}
				if pi > 0 {
					// mergeEntries groups medium entries by (group, row), but
					// rows fetched from different aggregation points are
					// unrelated coordinate spaces: a same-row collision across
					// points would look like an overfull group. Row is only a
					// grouping key host-side, so offsetting per point keeps
					// the spaces apart; point 0 stays untouched (identical to
					// the single-switch path).
					for i := range entries {
						entries[i].Row += pi * fetchRowStride
					}
				}
				all = append(all, entries...)
			}
			if stale {
				break
			}
		}
		if stale {
			continue
		}
		// Commit point: from here on, replays are ignored — every absorbed
		// tuple is either in `all` or was already claimed on the residue
		// path. No yields between the epoch check above and this line.
		t.switchCommitted = true
		t.mergeEntries(p, all)
		break
	}
	if !t.noRegion {
		p.Sleep(cpumodel.ControlRPCLatency)
		if err := t.d.ctrl.FreeRegion(t.spec.ID); err != nil && !t.d.failover {
			// Under failover a reboot may have freed the region already;
			// otherwise a free failure is a protocol bug.
			panic(fmt.Sprintf("hostd: freeing region of task %d: %v", t.spec.ID, err))
		}
	}
	if t.revoked {
		t.degraded = t.d.sim.Now().Sub(t.revokedAt)
	}
	t.completed = true
	if t.d.failover {
		// Release the senders' retained replay history: the result is final.
		released := make(map[core.HostID]bool)
		for _, s := range t.spec.Senders {
			if released[s] {
				continue
			}
			released[s] = true
			if s == t.d.host {
				t.d.onRelease(t.spec.ID)
			} else {
				t.d.ctrlCh.send(p, s, taskRelease{Task: t.spec.ID})
			}
		}
		t.d.bumpActivity(-1)
	}
	t.done.Fire()
}

// aggPoints lists the task's aggregation points: the fabric addresses to
// fetch/clear/swap at, defaulting to the legacy first-hop switch (requests
// addressed to this host, consumed by the switch on the path).
func (t *recvTask) aggPoints() []core.HostID {
	if len(t.alloc.FetchFrom) > 0 {
		return t.alloc.FetchFrom
	}
	return []core.HostID{t.d.host}
}

// maybeSwap triggers a shadow-copy swap when enough packets have reached
// the receiver since the last one (§3.4: forwarded packets indicate
// aggregator conflicts, i.e. pressure on the active copy).
//
// Tasks spread over several aggregation points (hierarchical fat-tree
// re-aggregation) never swap: one swap packet flips one switch's copy
// indicator, and flipping the points one by one would let a sender's packet
// meet different active copies at different tiers — the §3.4 quiescence
// argument only covers the single-switch deployment. Their hot-set relief
// comes from the cross-tenant borrowing policy instead (internal/tenancy).
func (t *recvTask) maybeSwap() {
	if !t.d.cfg.ShadowCopy || t.d.cfg.SwapThreshold == 0 || t.noRegion ||
		len(t.alloc.FetchFrom) > 1 ||
		t.swapping || t.tearingDown || t.pktsSinceSwap < t.d.cfg.SwapThreshold {
		return
	}
	t.swapping = true
	t.pktsSinceSwap = 0
	t.d.met.swapsTriggered.Inc()
	t.d.sim.Spawn(fmt.Sprintf("swap-task%d", t.spec.ID), t.runSwap)
}

// runSwap executes one swap: notify the switch (exactly-once via the swap
// sequence), then fetch, merge, and clear the now-idle copy so hot keys can
// reseize aggregators.
func (t *recvTask) runSwap(p *sim.Proc) {
	t.swapSeqNum++
	seq := t.swapSeqNum
	old := t.activeCopy
	pkt := &wire.Packet{
		Type: wire.TypeSwap,
		Task: t.spec.ID,
		Flow: core.FlowKey{Host: t.d.host, Channel: t.d.ctrlCh.flow.Channel},
		Seq:  seq,
	}
	// A single non-legacy aggregation point (e.g. a one-leaf task on a
	// fat-tree) swaps that switch by address; the legacy path stays
	// self-addressed and is consumed by the switch on the path.
	dst := t.aggPoints()[0]
	for window.SeqLess(t.lastSwapAck, seq) {
		t.d.sendOwned(dst, pkt.ClonePooled(), 0)
		p.WaitTimeout(t.swapAckSig, t.d.cfg.RetransmitTimeout)
	}
	t.activeCopy ^= 1
	entries := t.d.fetchEntries(p, t.spec.ID, old, true, dst)
	t.mergeEntries(p, entries)
	t.met.swaps.Inc()
	t.d.tr.Emit(telemetry.CompHostd, "swap_complete", int64(t.spec.ID), int64(seq), int64(len(entries)))
	t.swapping = false
	t.swapDone.Fire()
}

// onSwapAck records the switch's swap acknowledgment.
func (t *recvTask) onSwapAck(seq uint32) {
	if window.SeqLess(t.lastSwapAck, seq) {
		t.lastSwapAck = seq
	}
	t.swapAckSig.Fire()
}

// mergeEntries folds fetched aggregator entries into the task result,
// reconstructing short keys directly and medium keys from their coalesced
// group members.
func (t *recvTask) mergeEntries(p *sim.Proc, entries []wire.FetchEntry) {
	if len(entries) == 0 {
		return
	}
	t.d.cpu.Exec(p, time.Duration(len(entries))*cpumodel.HostAggregateCost)
	layout := t.d.layout
	shortSlots := layout.ShortSlots()
	m := t.d.cfg.MediumSegs
	partial := make(core.Result)
	type groupRow struct{ group, row int }
	groups := make(map[groupRow][]wire.FetchEntry)
	for _, e := range entries {
		if e.AA < shortSlots {
			key := layout.ReconstructShort(e.KPart)
			if cur, ok := partial[key]; ok {
				partial[key] = combine(t.spec.Op, cur, e.Val)
			} else {
				partial[key] = e.Val
			}
			continue
		}
		g := (e.AA - shortSlots) / m
		groups[groupRow{g, e.Row}] = append(groups[groupRow{g, e.Row}], e)
	}
	// Merge groups in a deterministic (group, row) order: for a
	// non-commutative Op the order in which rows fold into the partial
	// result is observable, and map iteration order would leak into it.
	rows := make([]groupRow, 0, len(groups))
	for gr := range groups {
		rows = append(rows, gr)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].group != rows[j].group {
			return rows[i].group < rows[j].group
		}
		return rows[i].row < rows[j].row
	})
	for _, gr := range rows {
		es := groups[gr]
		if len(es) != m {
			// An incomplete medium group is impossible on an honest build:
			// the switch writes all m members of a group atomically, and the
			// end-to-end checksum quarantines forged packets before they can
			// touch aggregator state. With verification disabled (the
			// DisableChecksumVerify fault hook), corrupted bytes can forge
			// partial groups; downgrade the assertion to data loss so the
			// chaos soak harness observes a conservation violation instead
			// of a crashed process.
			if t.d.cfg.DisableChecksumVerify {
				continue
			}
			panic(fmt.Sprintf("hostd: medium group %d row %d has %d of %d members", gr.group, gr.row, len(es), m))
		}
		kparts := make([]uint64, m)
		var val int64
		lastAA := shortSlots + gr.group*m + m - 1
		for _, e := range es {
			kparts[e.AA-shortSlots-gr.group*m] = e.KPart
			if e.AA == lastAA {
				val = e.Val
			}
		}
		key := layout.ReconstructMedium(kparts)
		if cur, ok := partial[key]; ok {
			partial[key] = combine(t.spec.Op, cur, val)
		} else {
			partial[key] = val
		}
	}
	t.result.Merge(partial, t.spec.Op)
	t.met.switchEntries.Add(int64(len(entries)))
	t.d.met.switchTuples.Add(int64(len(entries)))
}

// combine merges two partial aggregates of the same key (counts add).
func combine(op core.Op, a, b int64) int64 {
	if op == core.OpCount {
		return a + b
	}
	return op.Apply(a, b)
}

// fetchRetry is the receiver's fetch/clear retransmission interval; it must
// comfortably exceed one reply chunk's round trip.
const fetchRetry = 500 * time.Microsecond

// fetchRowStride separates the copy-relative row spaces of distinct
// aggregation points when their entries are merged together; it only needs
// to exceed any region's CopyRows.
const fetchRowStride = 1 << 20

// fetchReq tracks one in-flight fetch (or clear) request.
type fetchReq struct {
	id       uint32
	chunks   map[uint16][]wire.FetchEntry
	total    int
	cleared  bool
	progress *sim.Signal
}

func (fr *fetchReq) addChunk(pkt *wire.Packet) {
	fr.total = int(pkt.FetchChunks)
	if _, dup := fr.chunks[pkt.FetchChunk]; !dup {
		fr.chunks[pkt.FetchChunk] = pkt.FetchEntries
	}
	fr.progress.Fire()
}

// complete uses >= because a fetch retried across a switch reboot can see a
// smaller chunk total than an earlier partial reply delivered (the region no
// longer exists, so the reply is a single empty chunk); callers discard
// epoch-crossed snapshots anyway.
func (fr *fetchReq) complete() bool { return fr.total >= 0 && len(fr.chunks) >= fr.total }

// fetchEntries reliably reads one copy of a task's region (§3.4 Read) at
// aggregation point dst: an idempotent snapshot fetch retransmitted until
// all chunks arrive, followed (optionally) by an idempotent clear
// retransmitted until acknowledged. dst == d.host is the legacy
// single-switch shape (the request is consumed by the switch on the path);
// any other address names a leaf or spine on a multi-switch fabric.
func (d *Daemon) fetchEntries(p *sim.Proc, task core.TaskID, copy int, clear bool, dst core.HostID) []wire.FetchEntry {
	d.nextFetch++
	fr := &fetchReq{id: d.nextFetch, chunks: make(map[uint16][]wire.FetchEntry), total: -1, progress: sim.NewSignal(d.sim)}
	d.fetchReqs[fr.id] = fr
	req := &wire.Packet{
		Type:      wire.TypeFetch,
		Task:      task,
		Flow:      core.FlowKey{Host: d.host, Channel: d.ctrlCh.flow.Channel},
		Seq:       fr.id,
		FetchCopy: copy,
	}
	d.sendOwned(dst, req.ClonePooled(), 0)
	for !fr.complete() {
		if !p.WaitTimeout(fr.progress, fetchRetry) && !fr.complete() {
			d.sendOwned(dst, req.ClonePooled(), 0)
		}
	}
	delete(d.fetchReqs, fr.id)
	var entries []wire.FetchEntry
	for c := 0; c < fr.total; c++ {
		entries = append(entries, fr.chunks[uint16(c)]...)
	}

	if clear {
		d.nextFetch++
		cr := &fetchReq{id: d.nextFetch, chunks: map[uint16][]wire.FetchEntry{}, total: -1, progress: sim.NewSignal(d.sim)}
		d.fetchReqs[cr.id] = cr
		creq := req.Clone()
		creq.Seq = cr.id
		creq.FetchClear = true
		d.sendOwned(dst, creq.ClonePooled(), 0)
		for !cr.cleared {
			if !p.WaitTimeout(cr.progress, fetchRetry) && !cr.cleared {
				d.sendOwned(dst, creq.ClonePooled(), 0)
			}
		}
		delete(d.fetchReqs, cr.id)
	}
	return entries
}

package hostd

import (
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/sim"
	"repro/internal/wire"
)

// packetizer turns a tuple stream into ASK packets following the ordered
// key-space partition (§3.2.2): every key always lands in its own slot
// (short) or coalesced group (medium), so one key is served by exactly one
// (set of) AA(s). Long keys — and values that do not fit an aggregator's
// vPart — are collected into long-key packets that bypass the switch.
//
// Emission policy: the stream is drained into per-unit buckets; a data
// packet is emitted once every unit has a tuple queued (a full packet) or
// when the total buffered tuples reach the buffering bound (under key skew
// a hot subspace fills the buffer while others stay empty, which is what
// leaves slots blank in Fig. 8(b)). The bound is on the total, not per
// bucket: a per-bucket cap would lock balanced workloads into a
// partial-packet regime, because the fullest bucket drains at most one
// tuple per packet and re-fills faster than the emptiest bucket.
type packetizer struct {
	layout *keyspace.Layout
	stream core.Stream
	// stall, when non-nil, marks the stream as paced (a timed replay): a
	// !ok from the stream means "no tuple due yet", not EOF. stall reports
	// the virtual time the next tuple is due, or ok=false at true EOF. pull
	// consults it only with empty buffers; with tuples queued it flushes a
	// partial packet first, so a lull in arrivals never holds aggregated
	// data hostage (NIC-style idle flush).
	stall func() (due sim.Time, ok bool)
	// waiting marks that the last next returned no packet because the paced
	// source has nothing due before due: the caller calls next again then.
	waiting bool
	due     sim.Time
	// flush marks that the last pull stopped on a not-yet-due tuple with
	// data buffered: next must emit what it has even though no bucket set
	// is full.
	flush bool
	// part restricts placement to a tenant's keyspace band: keys outside it
	// (or of a class the band does not cover) take the long-key bypass. The
	// zero value routes over the whole keyspace, exactly as before.
	part keyspace.Partition
	// buckets[u] queues tuples for logical unit u: units 0..shortSlots-1
	// are short slots, then one per medium group.
	buckets  []bucket
	nonEmpty int
	buffered int
	longQ    []wire.LongKV
	eof      bool
	maxBuf   int
	valLo    int64
	valHi    int64
}

// bucket is one unit's FIFO of buffered tuples. Popping advances head
// instead of re-slicing, so the backing array is reused across packets
// rather than re-grown by every append.
type bucket struct {
	q    []core.KV
	head int
}

func (b *bucket) empty() bool { return b.head == len(b.q) }

func (b *bucket) push(kv core.KV) {
	if len(b.q) == cap(b.q) && b.head > 0 && b.head >= len(b.q)/2 {
		// Full with at least half of it popped: slide the live tail down
		// instead of growing.
		b.q = b.q[:copy(b.q, b.q[b.head:])]
		b.head = 0
	}
	b.q = append(b.q, kv)
}

func (b *bucket) pop() core.KV {
	kv := b.q[b.head]
	b.head++
	if b.head == len(b.q) {
		b.q, b.head = b.q[:0], 0
	}
	return kv
}

// bufferPerUnit sizes the total buffering bound: units × bufferPerUnit
// tuples may be held before a packet is emitted with blank slots.
const bufferPerUnit = 256

// maxLongPerPacket keeps long-key packets within the MTU for typical keys.
const maxLongPerPacket = 32

func newPacketizer(layout *keyspace.Layout, stream core.Stream) *packetizer {
	n := uint(8 * layout.Config().KPartBytes)
	return &packetizer{
		layout:  layout,
		stream:  stream,
		buckets: make([]bucket, layout.LogicalUnits()),
		maxBuf:  bufferPerUnit * layout.LogicalUnits(),
		valLo:   -(int64(1) << (n - 1)),
		valHi:   int64(1)<<(n-1) - 1,
	}
}

// newPacedPacketizer builds a packetizer over a paced source: stream yields
// only tuples already due, stall reports when the next one arrives. See the
// stall field for the emission policy.
func newPacedPacketizer(layout *keyspace.Layout, stream core.Stream, stall func() (sim.Time, bool)) *packetizer {
	pz := newPacketizer(layout, stream)
	pz.stall = stall
	return pz
}

// pull moves tuples from the stream into buckets until a packet can be
// emitted, the stream ends, or a paced stream has nothing due (waiting).
func (pz *packetizer) pull() {
	shortSlots := pz.layout.ShortSlots()
	pz.flush = false
	pz.waiting = false
	for !pz.eof {
		if pz.nonEmpty == len(pz.buckets) && len(pz.buckets) > 0 {
			return // full packet available
		}
		kv, ok := pz.stream()
		if !ok {
			if pz.stall == nil {
				pz.eof = true
				return
			}
			// Paced source: the next tuple is not due yet. Flush whatever
			// is queued before waiting; only wait with empty buffers.
			if pz.buffered > 0 || len(pz.longQ) > 0 {
				pz.flush = true
				return
			}
			due, more := pz.stall()
			if !more {
				pz.eof = true
				return
			}
			pz.waiting, pz.due = true, due
			return
		}
		if kv.Val < pz.valLo || kv.Val > pz.valHi {
			// Value exceeds the aggregator vPart: host-side path.
			pz.longQ = append(pz.longQ, wire.LongKV{Key: kv.Key, Val: kv.Val})
			if len(pz.longQ) >= maxLongPerPacket {
				return
			}
			continue
		}
		class, firstSlot, _ := pz.layout.LocateIn(pz.part, kv.Key)
		var unit int
		switch class {
		case keyspace.Short:
			unit = firstSlot
		case keyspace.Medium:
			unit = shortSlots + (firstSlot-shortSlots)/pz.layout.Config().MediumSegs
		default:
			pz.longQ = append(pz.longQ, wire.LongKV{Key: kv.Key, Val: kv.Val})
			if len(pz.longQ) >= maxLongPerPacket {
				return
			}
			continue
		}
		if pz.buckets[unit].empty() {
			pz.nonEmpty++
		}
		pz.buckets[unit].push(kv)
		pz.buffered++
		if pz.buffered >= pz.maxBuf {
			return // buffering bound: emit with blank slots
		}
	}
}

// next returns the next packet to transmit. tuples is the number of logical
// tuples it carries (for CPU accounting); ok is false when the stream and
// all buffers are exhausted, or — with waiting set — when a paced stream
// has nothing due before due. The returned packet lacks Task/Flow/Seq,
// which the data channel assigns.
func (pz *packetizer) next() (pkt *wire.Packet, tuples int, ok bool) {
	pz.pull()
	if pz.waiting {
		return nil, 0, false
	}
	// Long-key packets flush when saturated, at EOF before final data
	// packets (order is irrelevant; both are reliable), or on an arrival
	// lull when only long keys are queued.
	if len(pz.longQ) >= maxLongPerPacket || ((pz.eof || pz.flush) && pz.nonEmpty == 0 && len(pz.longQ) > 0) {
		n := len(pz.longQ)
		if n > maxLongPerPacket {
			n = maxLongPerPacket
		}
		long := append([]wire.LongKV(nil), pz.longQ[:n]...)
		pz.longQ = pz.longQ[:copy(pz.longQ, pz.longQ[n:])]
		return &wire.Packet{Type: wire.TypeLongKey, Long: long}, n, true
	}
	if pz.nonEmpty == 0 {
		return nil, 0, false
	}
	return pz.emitData()
}

// emitData builds one data packet taking at most one tuple per unit.
//
// The unit index already encodes the placement — unit u < shortSlots IS the
// short slot, and a medium unit's group is u − shortSlots — so tuples are
// packed straight from the key string without re-classifying or re-hashing
// (pull's Locate call did that once when bucketing).
func (pz *packetizer) emitData() (*wire.Packet, int, bool) {
	cfg := pz.layout.Config()
	shortSlots := pz.layout.ShortSlots()
	pkt := &wire.Packet{Type: wire.TypeData, Slots: make([]wire.Slot, cfg.NumAAs)}
	tuples := 0
	for u := range pz.buckets {
		b := &pz.buckets[u]
		if b.empty() {
			continue
		}
		kv := b.pop()
		pz.buffered--
		if b.empty() {
			pz.nonEmpty--
		}
		if u < shortSlots {
			pkt.Slots[u] = wire.Slot{
				KPart: wire.PackKPartString(kv.Key, cfg.KPartBytes),
				Val:   kv.Val,
			}
			pkt.Bitmap = pkt.Bitmap.Set(u)
		} else {
			first := shortSlots + (u-shortSlots)*cfg.MediumSegs
			for j := 0; j < cfg.MediumSegs; j++ {
				lo := j * cfg.KPartBytes
				hi := lo + cfg.KPartBytes
				var seg string
				if lo < len(kv.Key) {
					if hi > len(kv.Key) {
						hi = len(kv.Key)
					}
					seg = kv.Key[lo:hi]
				}
				slot := wire.Slot{KPart: wire.PackKPartString(seg, cfg.KPartBytes)}
				if j == cfg.MediumSegs-1 {
					slot.Val = kv.Val
				}
				pkt.Slots[first+j] = slot
				pkt.Bitmap = pkt.Bitmap.Set(first + j)
			}
		}
		tuples++
	}
	return pkt, tuples, true
}

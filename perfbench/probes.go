package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/wire"
)

// The probes time one layer's public functions directly on the workload's
// own keys, outside any run region. Each loops until probeBudget has passed
// so its per-operation time is a mean over many calls.
const probeBudget = 150 * time.Millisecond

// probeKeys returns the keys of the first sender of the first task.
func probeKeys(tasks []*task) []string {
	t := tasks[0]
	h := t.spec.Senders[0]
	keys := make([]string, 0, len(t.streams[h])+len(t.timed[h]))
	for _, kv := range t.streams[h] {
		keys = append(keys, kv.Key)
	}
	for _, tkv := range t.timed[h] {
		keys = append(keys, tkv.Key)
	}
	return keys
}

// placeNsPerKey times keyspace.Layout.Place over keys.
func placeNsPerKey(cfg core.Config, keys []string) (float64, error) {
	l, err := keyspace.NewLayout(cfg)
	if err != nil {
		return 0, err
	}
	var n int64
	var sink int
	start := time.Now()
	for time.Since(start) < probeBudget {
		for _, k := range keys {
			sink += l.Place(k).Segs
		}
		n += int64(len(keys))
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// dataPackets packs keys into data packets the way the packetizer lays them
// out: each key at its placement's slots, a packet closed as soon as a key
// finds its slots taken. Long keys travel in long-key packets and are
// skipped.
func dataPackets(cfg core.Config, keys []string) ([]*wire.Packet, error) {
	l, err := keyspace.NewLayout(cfg)
	if err != nil {
		return nil, err
	}
	var pkts []*wire.Packet
	p := &wire.Packet{Type: wire.TypeData, Slots: make([]wire.Slot, cfg.NumAAs)}
	for i, k := range keys {
		pl := l.Place(k)
		if pl.Class == keyspace.Long {
			continue
		}
		for s := pl.FirstSlot; s < pl.FirstSlot+pl.Segs; s++ {
			if p.Bitmap.Test(s) {
				pkts = append(pkts, p)
				p = &wire.Packet{Type: wire.TypeData, Seq: uint32(len(pkts)), Slots: make([]wire.Slot, cfg.NumAAs)}
				break
			}
		}
		for j, kp := range pl.KParts {
			s := pl.FirstSlot + j
			p.Slots[s] = wire.Slot{KPart: kp, Val: int64(i)}
			p.Bitmap = p.Bitmap.Set(s)
		}
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("probe: no full data packet from %d keys", len(keys))
	}
	return pkts, nil
}

// codecNsPerPkt times wire.Codec Marshal and Unmarshal over full data
// packets built from keys, and checks every packet round-trips.
func codecNsPerPkt(cfg core.Config, keys []string) (enc, dec float64, err error) {
	pkts, err := dataPackets(cfg, keys)
	if err != nil {
		return 0, 0, err
	}
	c := wire.NewCodec(cfg.KPartBytes)
	bufs := make([][]byte, len(pkts))
	var n int64
	start := time.Now()
	for time.Since(start) < probeBudget {
		for i, p := range pkts {
			if bufs[i], err = c.Marshal(p); err != nil {
				return 0, 0, err
			}
		}
		n += int64(len(pkts))
	}
	enc = float64(time.Since(start).Nanoseconds()) / float64(n)

	n = 0
	start = time.Now()
	for time.Since(start) < probeBudget {
		for i, b := range bufs {
			q, err := c.Unmarshal(b)
			if err != nil {
				return 0, 0, err
			}
			if q.Bitmap != pkts[i].Bitmap {
				return 0, 0, fmt.Errorf("probe: packet %d did not round-trip", i)
			}
		}
		n += int64(len(bufs))
	}
	dec = float64(time.Since(start).Nanoseconds()) / float64(n)
	return enc, dec, nil
}

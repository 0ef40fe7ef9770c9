package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped profile.proto that runtime/pprof writes and
// attributes its samples to the repository's layers. The module graph is
// stdlib-only, so the protobuf wire format is read by hand: only the fields
// attribution needs (sample types, samples, locations with their inlined
// lines, functions, the string table) are kept.

// profile is a decoded pprof profile. Stacks are function names, leaf
// first, with inlined frames expanded.
type profile struct {
	sampleTypes []string
	samples     []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i
		}
	}
	return -1
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

var errTruncated = errors.New("profile: truncated protobuf")

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). Fixed-width fields are skipped over.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// uints appends a repeated integer field's values, packed (wire type 2) or
// not (wire type 0).
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs      []string
		typeIdx   []uint64
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location → function IDs, leaf first
		funcNames = map[uint64]uint64{}   // function → string index
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, wire, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		if wire != 2 {
			continue
		}
		m := pbReader{data}
		switch field {
		case fProfileSampleType:
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				if f == fValueTypeType {
					typeIdx = append(typeIdx, v)
				}
			}
		case fProfileSample:
			var s rawSample
			for len(m.b) > 0 {
				f, w, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case fSampleLocation:
					s.locs, err = uints(s.locs, w, v, d)
				case fSampleValue:
					s.values, err = uints(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, _, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == fLineFunction {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case fProfileFunction:
			var id, name uint64
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
			}
			funcNames[id] = name
		case fProfileStrings:
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, s := range samples {
		ps := profSample{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// Profile buckets besides the repository layers.
const (
	bucketGC      = "runtime.gc"
	bucketHandoff = "runtime.handoff"
	bucketRuntime = "runtime.other"
	bucketOther   = "other"
	bucketBench   = "perfbench"
)

// layers are the repository packages the ledger names, by the first element
// of their import path under repro/internal (plus the public ask package).
// A repository package outside this list is attributed to bucketOther.
var layers = []string{
	"sim", "hostd", "switchd", "pisa", "window", "netsim", "wire",
	"keyspace", "core", "cpumodel", "tenancy", "telemetry", "ask",
}

// cpuBuckets lists every bucket a CPU sample can land in; their shares sum
// to one.
var cpuBuckets = append(append([]string{}, layers...), bucketBench, bucketGC, bucketHandoff, bucketRuntime, bucketOther)

// repoLayer maps a function name to its repository layer: the package of a
// repro/... symbol, or the benchmark itself for main-package symbols.
func repoLayer(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: "pkg.F[go.shape...]"
	}
	if strings.HasPrefix(fn, "main.") {
		return bucketBench, true
	}
	if !strings.HasPrefix(fn, "repro/") {
		return "", false
	}
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	last, _, _ := strings.Cut(fn[slash+1:], ".")
	rel := strings.TrimPrefix(strings.TrimPrefix(fn[:slash+1]+last, "repro/"), "internal/")
	rel, _, _ = strings.Cut(rel, "/")
	for _, l := range layers {
		if l == rel {
			return l, true
		}
	}
	return bucketOther, true
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// runtimeSet is a set of runtime function names.
func runtimeSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m["runtime."+n] = true
	}
	return m
}

// gcFuncs mark a stack as garbage-collector work wherever they appear:
// background mark workers, mutator assists, sweeping and scavenging.
var gcFuncs = runtimeSet("bgsweep", "bgscavenge", "sweepone", "markroot", "scanobject",
	"greyobject", "wbBufFlush", "wbBufFlush1")

func isGC(fn string) bool { return strings.HasPrefix(fn, "runtime.gc") || gcFuncs[fn] }

// handoffFuncs are the runtime's channel, scheduler, futex and lock paths:
// the cost of handing control between goroutines and OS threads.
var handoffFuncs = runtimeSet(
	"chansend", "chansend1", "chanrecv", "chanrecv1", "chanrecv2", "selectgo",
	"closechan", "send", "recv", "gopark", "goparkunlock", "park_m", "goready",
	"ready", "mcall", "schedule", "findRunnable", "stealWork", "runqgrab",
	"runqsteal", "runqget", "runqput", "wakep", "startm", "stopm", "handoffp",
	"mPark", "notesleep", "notewakeup", "notetsleep_internal", "notetsleepg",
	"futex", "futexsleep", "futexwakeup", "semasleep", "semawakeup",
	"semacquire1", "semrelease1", "lock2", "unlock2", "osyield", "usleep",
	"procyield", "execute", "gogo", "goexit0", "gdestroy", "resetspinning",
	"acquirep", "releasep", "entersyscall", "exitsyscall", "netpoll",
	"checkTimers", "newproc", "newproc1",
)

// cpuBucket classifies one CPU sample (stack leaf first):
//  1. GC work anywhere on the stack is runtime.gc;
//  2. a sample whose leaf-side run of runtime frames passes through channel,
//     scheduler, futex or lock code is runtime.handoff;
//  3. otherwise the leaf-most repository frame names the layer;
//  4. samples with no repository frame are runtime.other when the leaf is in
//     the runtime, other when not.
func cpuBucket(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if !isRuntime(fn) {
			break
		}
		if handoffFuncs[fn] {
			return bucketHandoff
		}
	}
	if l, ok := leafRepoLayer(stack); ok {
		return l
	}
	if len(stack) > 0 && isRuntime(stack[0]) {
		return bucketRuntime
	}
	return bucketOther
}

// allocBucket classifies an allocation sample by its leaf-most repository
// frame alone.
func allocBucket(stack []string) string {
	if l, ok := leafRepoLayer(stack); ok {
		return l
	}
	return bucketRuntime
}

func leafRepoLayer(stack []string) (string, bool) {
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			return l, true
		}
	}
	return "", false
}

// attribute sums the values of sample type typ per bucket.
func attribute(p *profile, typ string, bucket func([]string) string) (map[string]int64, error) {
	vi := p.valueIndex(typ)
	if vi < 0 {
		return nil, fmt.Errorf("profile: no sample type %q (have %v)", typ, p.sampleTypes)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[bucket(s.stack)] += s.values[vi]
		}
	}
	return out, nil
}

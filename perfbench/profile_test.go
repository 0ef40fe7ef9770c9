package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// pbWriter hand-encodes protobuf for the test profile.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbWriter) uint(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) packed(field int, vs []uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.b)
}

// testProfile builds a gzipped CPU profile with one sample per stack; a
// stack frame may be a list of inlined functions (innermost first). Odd
// samples encode their location IDs unpacked, even ones packed.
func testProfile(t *testing.T, typ string, stacks [][][]string, values []int64) []byte {
	t.Helper()
	strs := []string{"", typ, "count"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	funcs := map[string]uint64{}
	var prof pbWriter
	var vt pbWriter
	vt.uint(fValueTypeType, str(typ))
	vt.uint(2, str("count"))
	prof.bytes(fProfileSampleType, vt.b)

	locID := uint64(0)
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			locID++
			var loc pbWriter
			loc.uint(fLocationID, locID)
			for _, fn := range frame {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pbWriter
					f.uint(fFunctionID, id)
					f.uint(fFunctionName, str(fn))
					prof.bytes(fProfileFunction, f.b)
				}
				var line pbWriter
				line.uint(fLineFunction, id)
				line.uint(2, 42)
				loc.bytes(fLocationLine, line.b)
			}
			prof.bytes(fProfileLocation, loc.b)
			locs = append(locs, locID)
		}
		var s pbWriter
		if i%2 == 1 {
			for _, l := range locs {
				s.uint(fSampleLocation, l)
			}
		} else {
			s.packed(fSampleLocation, locs)
		}
		s.packed(fSampleValue, []uint64{uint64(values[i])})
		prof.bytes(fProfileSample, s.b)
	}
	for _, s := range strs {
		prof.bytes(fProfileStrings, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frames turns a leaf-first list of function names into one-function
// frames.
func frames(fns ...string) [][]string {
	out := make([][]string, len(fns))
	for i, f := range fns {
		out[i] = []string{f}
	}
	return out
}

func TestCPUAttribution(t *testing.T) {
	cases := []struct {
		name  string
		stack [][]string
		want  string
	}{
		{"leaf-most repo frame under a runtime leaf",
			frames("runtime.mallocgc", "repro/internal/wire.Codec.Marshal", "repro/internal/hostd.(*Daemon).send", "main.runRep"),
			"wire"},
		{"channel wake-up is handoff despite repo callers",
			frames("runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep",
				"runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend", "runtime.chansend1",
				"repro/internal/sim.(*Proc).dispatch", "repro/internal/sim.(*Simulation).Run"),
			bucketHandoff},
		{"background mark worker",
			frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"),
			bucketGC},
		{"mutator assist inside a repo allocation",
			frames("runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc",
				"repro/internal/core.Result.MergeKV"),
			bucketGC},
		{"inlined repo frame is the leaf-most",
			[][]string{{"repro/internal/keyspace.HashSlot", "repro/internal/keyspace.(*Layout).Locate"}, {"repro/internal/hostd.(*packetizer).pull"}},
			"keyspace"},
		{"generic instantiation",
			frames("repro/internal/sim.(*heap[go.shape.struct { repro/internal/x.at int64 }]).push", "repro/internal/netsim.(*Link).Send"),
			"sim"},
		{"benchmark delegate",
			frames("time.Now", "main.(*ingressTimer).HandleIngress", "repro/internal/netsim.(*Network).HostSend"),
			bucketBench},
		{"runtime without repo frames",
			frames("runtime.sysmon", "runtime.mstart1", "runtime.mstart"),
			bucketRuntime},
		{"stdlib without repo frames",
			frames("syscall.Syscall", "os.(*File).Write"),
			bucketOther},
		{"repo package outside the layer table",
			frames("repro/internal/stats.Mean"),
			bucketOther},
		{"public API package",
			frames("repro/ask.(*Cluster).startTask.func1"),
			"ask"},
	}
	var stacks [][][]string
	var values []int64
	want := map[string]int64{}
	for i, c := range cases {
		stacks = append(stacks, c.stack)
		values = append(values, int64(i+1))
		want[c.want] += int64(i + 1)
	}
	p, err := parseProfile(testProfile(t, "samples", stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(p.samples), len(cases))
	}
	for i, c := range cases {
		if got := cpuBucket(p.samples[i].stack); got != c.want {
			t.Errorf("%s: bucket %q, want %q (stack %v)", c.name, got, c.want, p.samples[i].stack)
		}
	}
	got, err := attribute(p, "samples", cpuBucket)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for b, v := range got {
		total += v
		if v != want[b] {
			t.Errorf("bucket %s: %d samples, want %d", b, v, want[b])
		}
		found := false
		for _, cb := range cpuBuckets {
			found = found || cb == b
		}
		if !found {
			t.Errorf("bucket %q is not a reported CPU bucket", b)
		}
	}
	if n := int64(len(cases) * (len(cases) + 1) / 2); total != n {
		t.Errorf("attributed %d samples, want all %d", total, n)
	}
	if _, err := attribute(p, "alloc_space", cpuBucket); err == nil {
		t.Error("attribute accepted a sample type the profile lacks")
	}
}

func TestAllocAttribution(t *testing.T) {
	stacks := [][][]string{
		frames("runtime.mallocgc", "runtime.growslice", "repro/internal/hostd.(*packetizer).pull"),
		frames("runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/pisa.AddArray"),
		frames("runtime.malg", "runtime.newproc1"),
	}
	p, err := parseProfile(testProfile(t, "alloc_space", stacks, []int64{100, 20, 3}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := attribute(p, "alloc_space", allocBucket)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"hostd": 100, "pisa": 20, bucketRuntime: 3}
	for b, v := range want {
		if got[b] != v {
			t.Errorf("alloc bucket %s = %d, want %d (all: %v)", b, got[b], v, got)
		}
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	var w pbWriter
	w.bytes(fProfileStrings, []byte("runtime.main"))
	if _, err := parseProfile(w.b[:len(w.b)-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

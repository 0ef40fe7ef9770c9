package pisa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddArrayResourceLimits(t *testing.T) {
	p := NewPipeline(Config{Stages: 2, MaxArraysPerStage: 2, SRAMPerStageBytes: 1024})
	if _, err := p.AddArray(0, "a", 64, 64); err != nil { // 512 B
		t.Fatal(err)
	}
	if _, err := p.AddArray(0, "b", 64, 64); err != nil { // 1024 B total
		t.Fatal(err)
	}
	// Third array in stage 0: too many arrays.
	if _, err := p.AddArray(0, "c", 1, 1); err == nil {
		t.Fatal("5th array accepted beyond MaxArraysPerStage")
	}
	// Stage 1 has room, but a huge array blows SRAM.
	if _, err := p.AddArray(1, "big", 1024*1024, 64); err == nil {
		t.Fatal("array exceeding SRAM accepted")
	}
	if _, err := p.AddArray(9, "x", 1, 1); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
	if _, err := p.AddArray(1, "w0", 1, 0); err == nil {
		t.Fatal("zero-width array accepted")
	}
	if _, err := p.AddArray(1, "w65", 1, 65); err == nil {
		t.Fatal("65-bit array accepted")
	}
	if _, err := p.AddArray(1, "e0", 0, 8); err == nil {
		t.Fatal("zero-entry array accepted")
	}
}

func TestSRAMAccounting(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	// An ASK aggregator array: 32768 × 64-bit = 256 KB.
	p.MustAddArray(0, "aa0", 32768, 64)
	if got := p.StageSRAMBytes(0); got != 256<<10 {
		t.Fatalf("stage SRAM = %d, want %d", got, 256<<10)
	}
	// Four fit in one stage within the 1280 KB budget.
	p.MustAddArray(1, "aa1", 32768, 64)
	p.MustAddArray(1, "aa2", 32768, 64)
	p.MustAddArray(1, "aa3", 32768, 64)
	p.MustAddArray(1, "aa4", 32768, 64)
	if got := p.StageSRAMBytes(1); got != 1024<<10 {
		t.Fatalf("stage 1 SRAM = %d, want 1 MB", got)
	}
	if got := p.SRAMBytes(); got != 1280<<10 {
		t.Fatalf("total SRAM = %d", got)
	}
}

func TestSealPreventsLayoutChanges(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	p.MustAddArray(0, "a", 8, 8)
	p.Begin() // auto-seals
	if _, err := p.AddArray(0, "late", 8, 8); err == nil {
		t.Fatal("array added after first pass")
	}
}

func TestRMWOncePerPass(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	ra := p.MustAddArray(0, "a", 8, 32)
	ps := p.Begin()
	ra.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return cur + 1, cur })
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("second RMW in one pass did not panic")
			} else if !strings.Contains(r.(string), "twice") {
				t.Errorf("unexpected panic: %v", r)
			}
		}()
		ra.RMW(ps, 1, func(cur uint64) (uint64, uint64) { return cur, cur })
	}()
	// A new pass may access it again.
	ps2 := p.Begin()
	got := ra.RMW(ps2, 0, func(cur uint64) (uint64, uint64) { return cur, cur })
	if got != 1 {
		t.Fatalf("entry = %d, want 1", got)
	}
}

func TestStageOrderEnforced(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	early := p.MustAddArray(1, "early", 8, 32)
	late := p.MustAddArray(5, "late", 8, 32)
	ps := p.Begin()
	late.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return cur, cur })
	defer func() {
		if recover() == nil {
			t.Fatal("backwards stage access did not panic")
		}
	}()
	early.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return cur, cur })
}

func TestSameStageMultipleArrays(t *testing.T) {
	// Distinct arrays in one stage may each be accessed once in a pass.
	p := NewPipeline(DefaultConfig())
	a := p.MustAddArray(3, "a", 8, 32)
	b := p.MustAddArray(3, "b", 8, 32)
	ps := p.Begin()
	a.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return 1, 0 })
	b.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return 2, 0 })
	if a.ControlRead(0) != 1 || b.ControlRead(0) != 2 {
		t.Fatal("same-stage arrays did not both update")
	}
}

func TestWidthMasking(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	ra := p.MustAddArray(0, "narrow", 4, 8) // 8-bit entries
	ps := p.Begin()
	ra.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return 0x1ff, 0 })
	if got := ra.ControlRead(0); got != 0xff {
		t.Fatalf("8-bit entry holds %#x, want masked 0xff", got)
	}
	// 64-bit entries keep all bits. (New pipeline: the first is sealed.)
	p2 := NewPipeline(DefaultConfig())
	full := p2.MustAddArray(1, "full", 4, 64)
	ps2 := p2.Begin()
	full.RMW(ps2, 0, func(cur uint64) (uint64, uint64) { return ^uint64(0), 0 })
	if got := full.ControlRead(0); got != ^uint64(0) {
		t.Fatalf("64-bit entry holds %#x", got)
	}
}

func TestIndexBounds(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	ra := p.MustAddArray(0, "a", 4, 32)
	ps := p.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	ra.RMW(ps, 4, func(cur uint64) (uint64, uint64) { return cur, cur })
}

func TestControlPlaneOps(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	ra := p.MustAddArray(0, "a", 16, 16)
	ra.ControlWrite(3, 0x12345)
	if got := ra.ControlRead(3); got != 0x2345 {
		t.Fatalf("ControlRead = %#x, want masked 0x2345", got)
	}
	ra.ControlFill(0, 16, 7)
	for i := 0; i < 16; i++ {
		if ra.ControlRead(i) != 7 {
			t.Fatalf("entry %d = %d after fill", i, ra.ControlRead(i))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad ControlFill range did not panic")
			}
		}()
		ra.ControlFill(0, 17, 0)
	}()
}

func TestPassCounter(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	p.MustAddArray(0, "a", 4, 32)
	for i := 0; i < 5; i++ {
		p.Begin()
	}
	if p.Passes() != 5 {
		t.Fatalf("Passes = %d, want 5", p.Passes())
	}
}

func TestRMWAtomicSemantics(t *testing.T) {
	// Property: a sequence of RMW increments behaves like a counter — reads
	// always observe all prior writes (stage processes one packet at a time).
	p := NewPipeline(DefaultConfig())
	ra := p.MustAddArray(0, "ctr", 1, 64)
	f := func(n uint8) bool {
		start := ra.ControlRead(0)
		for i := 0; i < int(n); i++ {
			ps := p.Begin()
			ra.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return cur + 1, cur })
		}
		return ra.ControlRead(0) == start+uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBadPipelineConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewPipeline(Config{})
}

func TestDescribe(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	p.MustAddArray(0, "max_seq", 512, 32)
	p.MustAddArray(2, "aa0", 32768, 64)
	d := p.Describe()
	for _, want := range []string{"stage  0", "max_seq: 512 x 32b", "aa0: 32768 x 64b", "total SRAM"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
	// Empty stages are omitted.
	if strings.Contains(d, "stage  1") {
		t.Fatalf("empty stage printed:\n%s", d)
	}
}

// TestPagedEntries covers the lazily paged entry store across a page
// boundary and a short last page: untouched entries read zero, zero writes
// allocate nothing, and a nonzero write allocates only its own page.
func TestPagedEntries(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	n := entryPage + 5
	ra := p.MustAddArray(0, "a", n, 32)
	allocated := func() (k int) {
		for _, pg := range ra.pages {
			if pg != nil {
				k++
			}
		}
		return k
	}
	ra.ControlFill(0, n, 0)
	ra.ControlWrite(3, 0)
	if got := allocated(); got != 0 {
		t.Fatalf("%d pages allocated by zero writes, want 0", got)
	}
	ps := p.Begin()
	ra.RMW(ps, n-1, func(cur uint64) (uint64, uint64) { return cur + 9, cur })
	if got := allocated(); got != 1 || len(ra.pages[1]) != 5 {
		t.Fatalf("after one write: %d pages, last page %d entries; want 1 page of 5", got, len(ra.pages[1]))
	}
	for _, i := range []int{0, entryPage - 1, entryPage, n - 1} {
		want := uint64(0)
		if i == n-1 {
			want = 9
		}
		if got := ra.ControlRead(i); got != want {
			t.Fatalf("entry %d = %d, want %d", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ControlRead past the last entry of a short page did not panic")
		}
	}()
	ra.ControlRead(n)
}

package chaos_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/netsim"
)

// soakGoldens pins the full report text of representative soaks, so a
// change that moves a schedule draw, a fault's timing or a report line
// fails here and not only when an invariant breaks. The rack and fat-tree
// cases are the `make soak` configurations; rack-break-3 is the
// deliberately broken build (checksum verification off), whose report
// carries the shrunk schedule and the reproducer line; the isolation cases
// are the tenant-victim soak's end-to-end seeds.
var soakGoldens = []struct {
	name string
	cfg  chaos.Config
}{
	{"rack-1", chaos.Config{Seed: 1, Base: netsim.Fault{CorruptProb: 1e-3}}},
	{"rack-2", chaos.Config{Seed: 2, Base: netsim.Fault{CorruptProb: 1e-3}}},
	{"rack-3", chaos.Config{Seed: 3, Base: netsim.Fault{CorruptProb: 1e-3}}},
	{"rack-break-3", chaos.Config{Seed: 3, Base: netsim.Fault{CorruptProb: 5e-3}, DisableChecksumVerify: true}},
	{"fattree-1", chaos.Config{Preset: chaos.FatTree, Seed: 1, Base: netsim.Fault{CorruptProb: 1e-3}}},
	{"fattree-2", chaos.Config{Preset: chaos.FatTree, Seed: 2, Base: netsim.Fault{CorruptProb: 1e-3}}},
	{"fattree-1-shards4", chaos.Config{Preset: chaos.FatTree, Seed: 1, Base: netsim.Fault{CorruptProb: 1e-3}, Shards: 4}},
	{"isolation-7", chaos.Config{Preset: chaos.Isolation, Seed: 7}},
	{"isolation-13", chaos.Config{Preset: chaos.Isolation, Seed: 13}},
}

// TestSoakGoldens compares each soak's report with testdata/<name>.golden.
func TestSoakGoldens(t *testing.T) {
	for _, g := range soakGoldens {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := chaos.Soak(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.String(); got != string(want) {
				t.Fatalf("report drifted from testdata/%s.golden\ngot:\n%s\nwant:\n%s", g.name, got, want)
			}
		})
	}
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// shortScale is each workload's tuples per sender in the short-scale test.
var shortScale = map[string]int{"rack-hot": 3000, "rack-cold-lossy": 3000, "fabric-paced": 300}

// TestWorkloadsShortScale runs every workload at tiny scale: results must be
// exact, two untraced reps and a traced rep must give identical sim
// outputs, and the metrics the run reports must be exactly the ones
// BENCHMARK.json declares, with the same units.
func TestWorkloadsShortScale(t *testing.T) {
	declared := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const seed = 7
			tasks := w.gen(seed, shortScale[w.name])
			setReferences(tasks)
			var reps []*repRecord
			for i := 0; i < 2; i++ {
				r, err := runRep(w, seed, tasks, nil)
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, r)
			}
			tr := &tracer{}
			traced, err := runRep(w, seed, tasks, tr)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Trace, err = tr.record(tasks); err != nil {
				t.Fatal(err)
			}
			for i, r := range append(reps, traced) {
				if r.Failed != 0 || len(r.Failures) != 0 {
					t.Fatalf("rep %d: %d of %d tasks failed: %v", i, r.Failed, r.Attempted, r.Failures)
				}
				if !reflect.DeepEqual(r.Sim, reps[0].Sim) {
					t.Fatalf("rep %d sim outputs differ:\n got %+v\nwant %+v", i, r.Sim, reps[0].Sim)
				}
			}
			if so := reps[0].Sim; so.Absorbed == 0 || medianJCTms(so) <= 0 {
				t.Fatalf("implausible sim outputs: %+v", so)
			}

			res := &result{attempted: 3 * len(tasks)}
			ledgerMetrics, err := ledger(reps, []*repRecord{traced}, res)
			if err != nil {
				t.Fatal(err)
			}
			checkDeclared(t, "end_to_end", declared.EndToEnd, endToEnd(reps, res))
			checkDeclared(t, "per_layer", declared.PerLayer, ledgerMetrics)
		})
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	return b
}

func checkDeclared(t *testing.T, section string, declared []declaredMetric, got []metric) {
	t.Helper()
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	have := map[string]string{}
	for _, m := range got {
		have[m.name] = m.unit
	}
	var diffs []string
	for n, u := range want {
		if have[n] != u {
			diffs = append(diffs, "declared "+n+" ["+u+"], reported ["+have[n]+"]")
		}
	}
	for n := range have {
		if _, ok := want[n]; !ok {
			diffs = append(diffs, "reported "+n+" is not declared")
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Errorf("%s: %s", section, d)
	}
}

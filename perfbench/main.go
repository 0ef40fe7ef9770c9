// Command perfbench is the repository benchmark: it runs one ASK workload
// through the public API (ask.NewCluster / ask.NewFatTreeCluster,
// StartTask / StartTaskTimed, Sim.Run, Get), checks every result exactly
// against core.Reference, and prints the end-to-end metrics (-trace 0) or
// the per-layer ledger of a separate traced run (-trace 1). The last line
// of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// Each rep runs in a fresh child process (the same binary with -rep): a
// built cluster is never freed while its sim.Proc goroutines stay blocked,
// so reps sharing a process would each run on a larger heap than the last.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package first. README.md explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strconv"
	"time"
)

// minReps is the fewest reps a phase measures, however long they take.
const minReps = 2

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: rack-hot, rack-cold-lossy or fabric-paced")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measurement time, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	rep := fs.Bool("rep", false, "run one rep in this process and print its record (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		return 2
	}
	if *rep {
		rec, err := childRep(w, *seed, w.perSender, *trace == 1)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s rep: %v\n", w.name, err)
			return 1
		}
		return 0
	}

	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("# host %s\n", fpJSON)
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL %s\n", w.name, f)
	}
	fmt.Printf("# %s seed=%d reps=%d GOMAXPROCS=%d\n", w.name, *seed, res.reps, fp.GOMAXPROCS)
	for _, m := range res.metrics {
		fmt.Printf("# %-34s %-4s %16.6g %s\n", m.name, m.kind, m.value, m.unit)
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]jsonMetricValue `json:"metrics"`
	}{res.failed == 0 && len(res.failures) == 0, res.attempted, res.failed, make(map[string]jsonMetricValue)}
	for _, m := range res.metrics {
		out.Metrics[m.name] = jsonMetricValue{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type jsonMetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported number. kind labels what it measures: "host" for
// wall or CPU time and memory of the simulator process, "sim" for virtual
// time or counts of the modelled ASK deployment, "-" for neither.
type metric struct {
	name, unit, kind string
	value            float64
}

// result is a whole run: its metrics and its failure accounting.
type result struct {
	metrics           []metric
	reps              int
	attempted, failed int
	failures          []string
}

// phase runs child reps until budget has passed (and at least minReps),
// checking that every rep reproduces want's sim outputs (the first rep's
// when want is nil). A rep whose sim outputs differ counts each of its tasks
// as failed.
func phase(w *workloadDef, seed int64, budget time.Duration, traced bool, want *simOutputs, res *result) ([]*repRecord, error) {
	var reps []*repRecord
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		r, err := spawnRep(w, seed, traced)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# rep %d traced=%t setup_s=%.6f run_s=%.6f alloc_B=%d gc=%d\n",
			len(reps), traced, r.SetupS[0], r.RunS, r.AllocBytes, r.GCCycles)
		if want == nil {
			want = &r.Sim
		}
		res.attempted += r.Attempted
		res.failed += r.Failed
		res.failures = append(res.failures, r.Failures...)
		if !reflect.DeepEqual(r.Sim, *want) {
			res.failed += r.Attempted - r.Failed
			res.failures = append(res.failures, fmt.Sprintf("rep %d (traced=%t): sim outputs differ: %+v vs %+v", len(reps), traced, r.Sim, *want))
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// spawnRep runs one rep in a child process and decodes its record.
func spawnRep(w *workloadDef, seed int64, traced bool) (*repRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-rep", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("rep: %w", err)
	}
	var r repRecord
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("rep record: %w", err)
	}
	return &r, nil
}

// measure runs the untraced phase for the whole budget, or with traced set
// splits it between the untraced phase and the traced one, and reports the
// end-to-end metrics or the per-layer ledger.
func measure(w *workloadDef, seed int64, budget time.Duration, traced bool) (*result, error) {
	if traced {
		budget /= 2
	}
	res := &result{}
	plain, err := phase(w, seed, budget, false, nil, res)
	if err != nil {
		return nil, err
	}
	res.reps = len(plain)
	if !traced {
		res.metrics = endToEnd(plain, res)
		return res, nil
	}
	tracedReps, err := phase(w, seed, budget, true, &plain[0].Sim, res)
	if err != nil {
		return nil, err
	}
	res.reps += len(tracedReps)
	res.metrics, err = ledger(plain, tracedReps, res)
	return res, err
}

// endToEnd computes the metrics a user of the system sees, all with
// tracing off: medians over the reps (setup_s over every build).
func endToEnd(reps []*repRecord, res *result) []metric {
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.SetupS...)
	}
	so := reps[0].Sim
	return []metric{
		{"tuples_per_s", "1/s", "host", median(perRep(reps, tuplesPerS))},
		{"setup_s", "s", "host", median(setups)},
		{"alloc_bytes_per_tuple", "B", "host", median(perRep(reps, func(r *repRecord) float64 { return float64(r.AllocBytes) / float64(r.Tuples) }))},
		{"peak_rss_mb", "MB", "host", median(perRep(reps, func(r *repRecord) float64 { return r.PeakRSSMB }))},
		{"sim_jct_ms", "ms", "sim", medianJCTms(so)},
		{"switch_absorb_frac", "frac", "sim", absorbFrac(so)},
		{"task_exact_frac", "frac", "-", 1 - float64(res.failed)/float64(res.attempted)},
	}
}

func tuplesPerS(r *repRecord) float64 { return float64(r.Tuples) / r.RunS }

func perRep(reps []*repRecord, f func(*repRecord) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

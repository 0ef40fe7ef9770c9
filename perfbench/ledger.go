package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// ledger computes the per-layer metrics of the traced reps. Each layer's
// row in README.md names the end-to-end metric it should move and the
// workload it shows on. Sim counts are per rep (reps are identical by
// construction); profile shares pool every traced rep's run region; host
// timings are medians over reps.
func ledger(plain, traced []*repRecord, res *result) ([]metric, error) {
	so := traced[0].Sim
	tuples := traced[0].Tuples
	var sum traceRecord
	sum.CPUSamples, sum.AllocBytes = make(map[string]int64), make(map[string]int64)
	var runS, cpuS float64
	for _, r := range traced {
		runS += r.RunS
		cpuS += r.ProcCPUS
		t := r.Trace
		if t == nil {
			return nil, fmt.Errorf("traced rep returned no trace record")
		}
		for b, v := range t.CPUSamples {
			sum.CPUSamples[b] += v
		}
		for b, v := range t.AllocBytes {
			sum.AllocBytes[b] += v
		}
		sum.IngressCalls += t.IngressCalls
		sum.IngressNs += t.IngressNs
		sum.RunNs += t.RunNs
		sum.BorrowedPeak = max(sum.BorrowedPeak, t.BorrowedPeak)
	}
	n := float64(len(traced))
	plainTPS := median(perRep(plain, tuplesPerS))
	tracedTPS := median(perRep(traced, tuplesPerS))
	med := func(f func(r *repRecord) float64) float64 { return median(perRep(traced, f)) }

	var samples, allocTotal int64
	for _, v := range sum.CPUSamples {
		samples += v
	}
	if samples == 0 {
		return nil, fmt.Errorf("traced run recorded no CPU samples")
	}
	for _, v := range sum.AllocBytes {
		allocTotal += v
	}
	cpuShare := func(b string) float64 { return float64(sum.CPUSamples[b]) / float64(samples) }
	allocShare := func(b string) float64 {
		if allocTotal <= 0 {
			return 0
		}
		return float64(sum.AllocBytes[b]) / float64(allocTotal)
	}

	ms := []metric{
		{"trace.untraced_tuples_per_s", "1/s", "host", plainTPS},
		{"trace.traced_tuples_per_s", "1/s", "host", tracedTPS},
		{"trace.overhead", "ratio", "host", plainTPS / tracedTPS},
		{"profile.samples", "count", "host", float64(samples)},
		{"task_fail_frac", "frac", "-", float64(res.failed) / float64(res.attempted)},

		{"runtime.gc_cpu_frac", "frac", "host", med(func(r *repRecord) float64 { return r.GCCPUFrac })},
		{"runtime.cpu_per_wall", "ratio", "host", cpuS / runS},
		{"runtime.mallocs_per_tuple", "count", "host", med(func(r *repRecord) float64 { return float64(r.AllocObjs) / float64(r.Tuples) })},
		{"runtime.gc_cycles", "count", "host", med(func(r *repRecord) float64 { return float64(r.GCCycles) })},
		{"runtime.sched_events", "count", "host", med(func(r *repRecord) float64 { return float64(r.SchedEvents) })},

		{"sim.windows", "count", "host", float64(so.Shard.Windows)},
		{"sim.parallel_window_frac", "frac", "host", ratio(so.Shard.ParallelWindows, so.Shard.Windows)},
		{"sim.inline_window_frac", "frac", "host", ratio(so.Shard.InlineWindows, so.Shard.Windows)},
		{"sim.injects", "count", "host", float64(so.Shard.Injects)},

		{"hostd.tuples_per_pkt", "count", "sim", ratio(so.Host.TuplesSent, so.Host.PacketsSent)},
		{"hostd.long_key_frac", "frac", "sim", ratio(so.Host.LongTuplesSent, so.Host.TuplesSent)},
		{"hostd.residue_tuples", "count", "sim", float64(so.Recv.ResidueTuples)},
		{"hostd.switch_entries_merged", "count", "sim", float64(so.Recv.SwitchEntries)},

		{"switchd.ingress_calls", "count", "sim", float64(sum.IngressCalls) / n},
		{"switchd.ingress_ns_per_call", "ns", "host", float64(sum.IngressNs) / float64(sum.IngressCalls)},
		{"switchd.busy_frac", "frac", "host", float64(sum.IngressNs) / float64(sum.RunNs)},
		{"switchd.acked_pkt_frac", "frac", "sim", ratio(so.TaskSwitch.AckedPackets, so.TaskSwitch.DataPackets)},
		{"switchd.conflict_frac", "frac", "sim", ratio(so.TaskSwitch.TuplesConflicted, so.TaskSwitch.TuplesIn)},
		{"switchd.swaps", "count", "sim", float64(so.Switch.Swaps)},
		{"switchd.dup_pkts", "count", "sim", float64(so.Switch.DupPackets)},

		{"window.retx_frac", "frac", "sim", ratio(so.Window.Retransmits, so.Window.Sent)},

		{"netsim.frames", "count", "sim", float64(so.Links.TxFrames)},
		{"netsim.goodput_frac", "frac", "sim", ratio(so.Links.TxGoodBytes, so.Links.TxWireBytes)},
		{"netsim.dropped_frames", "count", "sim", float64(so.Links.Dropped)},

		{"wire.bytes_per_tuple", "B", "sim", ratio(so.Links.TxWireBytes, tuples)},
		{"wire.encode_ns_per_pkt", "ns", "host", med(func(r *repRecord) float64 { return r.Trace.EncodeNsPerPkt })},
		{"wire.decode_ns_per_pkt", "ns", "host", med(func(r *repRecord) float64 { return r.Trace.DecodeNsPerPkt })},

		{"keyspace.place_ns_per_key", "ns", "host", med(func(r *repRecord) float64 { return r.Trace.PlaceNsPerKey })},

		{"core.result_keys", "count", "sim", float64(so.ResultKeys)},

		{"cpumodel.receiver_busy_frac", "frac", "sim", float64(so.RecvBusy) / float64(so.RecvCap)},
		{"cpumodel.sender_busy_frac", "frac", "sim", float64(so.SendBusy) / float64(so.SendCap)},

		{"tenancy.admissions", "count", "sim", float64(so.Admitted)},
		{"tenancy.rejections", "count", "sim", float64(so.Rejected)},
		{"tenancy.rows_borrowed", "count", "sim", float64(sum.BorrowedPeak)},

		{"ask.retained_mb_per_cluster", "MB", "host", med(func(r *repRecord) float64 { return r.RetainedMB })},
		{"workload.gen_s", "s", "host", med(func(r *repRecord) float64 { return r.GenS })},
		{"core.reference_s", "s", "host", med(func(r *repRecord) float64 { return r.RefS })},
		{"ask.verify_s", "s", "host", med(func(r *repRecord) float64 { return r.VerifyS })},
	}
	var total float64
	for _, b := range cpuBuckets {
		total += cpuShare(b)
		ms = append(ms, metric{cpuMetricName(b), "frac", "host", cpuShare(b)})
	}
	if total < 0.999999 || total > 1.000001 {
		return nil, fmt.Errorf("profile shares sum to %v, not 1", total)
	}
	for _, b := range allocLayers {
		ms = append(ms, metric{b + ".alloc_share", "frac", "host", allocShare(b)})
	}
	return ms, nil
}

// allocLayers are the layers whose allocation share the ledger reports:
// the ones whose allocations dominate a run.
var allocLayers = []string{"sim", "hostd", "switchd", "pisa", "window", "netsim", "wire", "core", "ask"}

// cpuMetricName names a CPU bucket's share: runtime.gc → runtime.gc_cpu_share,
// hostd → hostd.cpu_share.
func cpuMetricName(b string) string {
	if strings.Contains(b, ".") {
		return b + "_cpu_share"
	}
	return b + ".cpu_share"
}

// fingerprint identifies the host and the code a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the VCS revision stamped into the binary, when it was built
	// inside a checkout that has one.
	Commit string `json:"commit,omitempty"`
	// Tree hashes the Go sources and module files under the working
	// directory, so builds without VCS data are still identified.
	Tree string `json:"tree"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Tree:       treeHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeHash is a SHA-256 over the paths and contents of every .go, go.mod
// and go.sum file under root, skipping dot-directories (build output).
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

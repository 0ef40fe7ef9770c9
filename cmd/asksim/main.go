// Command asksim runs one ASK aggregation task on a simulated cluster built
// from flags and dumps the full metric set — a scriptable way to poke the
// system.
//
// Example:
//
//	asksim -hosts 4 -senders 3 -tuples 1000000 -distinct 8192 \
//	       -skew 1.1 -loss 0.01 -channels 4 -swap 4096
//
//	askgen -scenario flash-crowd -out flash.askt
//	asksim -replay flash.askt          # timed replay on the sim clock
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/ask"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fail reports a usage or setup error and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asksim: "+format+"\n", args...)
	os.Exit(1)
}

// writeSnapshot writes one exporter's output to path ("-" = stdout).
func writeSnapshot(path string, write func(w io.Writer) error) {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		out = f
	}
	if err := write(out); err != nil {
		fail("%v", err)
	}
}

func main() {
	var (
		hosts    = flag.Int("hosts", 4, "servers in the rack (receiver is host 0)")
		senders  = flag.Int("senders", 3, "sending hosts (1..senders)")
		tuples   = flag.Int64("tuples", 500_000, "tuples per sender")
		distinct = flag.Int("distinct", 8192, "distinct keys per sender")
		skew     = flag.Float64("skew", 0, "Zipf exponent (0 = uniform)")
		loss     = flag.Float64("loss", 0, "per-link loss probability")
		dup      = flag.Float64("dup", 0, "per-link duplication probability")
		channels = flag.Int("channels", 4, "data channels per daemon")
		swap     = flag.Int("swap", 4096, "shadow-copy swap threshold (0 = off)")
		rows     = flag.Int("rows", 0, "switch region rows (0 = default)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		verify   = flag.Bool("verify", true, "check the result against a host-computed reference")
		trace    = flag.String("trace", "", "replay a TSV trace (from askgen) instead of generating (split round-robin across senders)")
		replay   = flag.String("replay", "", "replay a timed trace (askgen -scenario; v1 TSV also accepted) on the sim clock: tuples enter the senders at their recorded arrival offsets")
		layout   = flag.Bool("layout", false, "print the switch pipeline layout and exit")
		telem    = flag.Bool("telemetry", false, "enable the cluster telemetry stack and print the metric report")
		promOut  = flag.String("prom", "", "write a Prometheus text snapshot to this file ('-' = stdout; implies -telemetry)")
		jsonOut  = flag.String("json", "", "write a JSON telemetry snapshot (metrics, series, trace events) to this file ('-' = stdout; implies -telemetry)")

		topology = flag.String("topology", "rack", "deployment: rack (single switch) or fattree (spine/leaf fabric)")
		spines   = flag.Int("spines", 2, "fat-tree spine switches (topology=fattree)")
		leaves   = flag.Int("leaves", 3, "fat-tree leaf switches; -hosts is then hosts per leaf (topology=fattree)")
		tenants  = flag.Int("tenants", 0, "tenants sharing the fat-tree, one task each, equal weights (0 = untenanted; topology=fattree)")
		shards   = flag.Int("shards", 0, "parallel event-loop shards (topology=fattree; rejected on the rack, whose single switch leaves no partition boundary to cut); <= 1 runs the serial scheduler, and a 1-leaf fabric always does; a sharded run prints its window handoff counts on stderr (DESIGN.md \"Parallel DES\")")

		soak        = flag.Bool("soak", false, "run the chaos soak harness instead of a single task (honors -topology)")
		soakRuns    = flag.Int("soak.runs", 1, "consecutive soak seeds to run (soak.seed, soak.seed+1, ...)")
		soakSeed    = flag.Int64("soak.seed", 1, "soak seed (drives workload, schedule, and fault RNG)")
		soakEvents  = flag.Int("soak.events", 6, "fault events per soak schedule")
		soakSenders = flag.Int("soak.senders", 0, "sending hosts in the soak cluster (0 = default 2; topology=rack)")
		soakTuples  = flag.Int64("soak.tuples", 0, "tuples per sender in the soak workload (0 = topology default)")
		soakCorrupt = flag.Float64("soak.corrupt", 1e-3, "baseline per-link corruption probability during the soak")
		soakBreak   = flag.Bool("soak.break-checksums", false, "disable checksum verification (fault hook) to demo harness detection (topology=rack)")
		soakSpines  = flag.Int("soak.spines", 0, "fat-tree soak spine switches (0 = default 2; topology=fattree)")
		soakLeaves  = flag.Int("soak.leaves", 0, "fat-tree soak leaf switches (0 = default 3; topology=fattree)")
		soakShards  = flag.Int("soak.shards", 0, "run the fat-tree soak on the parallel scheduler with this many shards (0/1 = serial; topology=fattree)")
	)
	flag.Parse()
	if *promOut != "" || *jsonOut != "" {
		*telem = true
	}
	if *soak {
		runSoak(*topology, *soakRuns, chaos.Config{
			Seed: *soakSeed, Events: *soakEvents, Tuples: *soakTuples,
			Base:    netsim.Fault{CorruptProb: *soakCorrupt},
			Senders: *soakSenders, DisableChecksumVerify: *soakBreak,
			Spines: *soakSpines, Leaves: *soakLeaves, Shards: *soakShards,
		})
		return
	}

	switch *topology {
	case "rack":
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				fail("-shards needs -topology fattree (a single rack has no partition boundary to cut)")
			}
		})
	case "fattree":
		runFatTree(fatTreeFlags{
			Spines: *spines, Leaves: *leaves, HostsPerLeaf: *hosts,
			Tenants: *tenants, Tuples: *tuples, Distinct: *distinct,
			Skew: *skew, Rows: *rows, Seed: *seed, Verify: *verify,
			Telemetry: *telem, Shards: *shards,
		})
		return
	default:
		fail("unknown -topology %q (rack or fattree)", *topology)
	}

	if *senders >= *hosts {
		fail("need senders < hosts (host 0 is the receiver)")
	}
	cfg := core.DefaultConfig()
	cfg.DataChannels = *channels
	cfg.SwapThreshold = *swap
	cfg.ShadowCopy = *swap > 0
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = *loss
	link.Fault.DupProb = *dup

	cl, err := ask.NewCluster(ask.Options{
		Hosts: *hosts, Config: cfg, Link: link, Seed: *seed,
		Telemetry: telemetry.Config{Enabled: *telem},
	})
	if err != nil {
		fail("%v", err)
	}
	if *layout {
		fmt.Print(cl.Switch.Pipeline().Describe())
		return
	}

	spec := core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: *rows}
	streams := make(map[core.HostID]core.Stream)
	timed := make(map[core.HostID]core.TimedStream)
	want := make(core.Result)
	var total int64
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fail("%v", err)
		}
		hdr, tkvs, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fail("%v", err)
		}
		if hdr.Scenario != "" {
			fmt.Printf("replaying scenario %q (trace v%d, seed %d, %d records)\n",
				hdr.Scenario, hdr.Version, hdr.Seed, hdr.Records)
		}
		total = int64(len(tkvs))
		parts := workload.SplitTimedRoundRobin(tkvs, *senders)
		for i := 1; i <= *senders; i++ {
			h := core.HostID(i)
			spec.Senders = append(spec.Senders, h)
			timed[h] = core.SliceTimedStream(parts[i-1])
			for _, tkv := range parts[i-1] {
				want.MergeKV(tkv.KV, core.OpSum)
			}
		}
	} else if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fail("%v", err)
		}
		kvs, err := workload.ReadTSV(f)
		f.Close()
		if err != nil {
			fail("%v", err)
		}
		total = int64(len(kvs))
		parts := workload.SplitRoundRobin(kvs, *senders)
		for i := 1; i <= *senders; i++ {
			h := core.HostID(i)
			spec.Senders = append(spec.Senders, h)
			streams[h] = core.SliceStream(parts[i-1])
			want.Merge(core.Reference(core.OpSum, parts[i-1]), core.OpSum)
		}
	} else {
		total = *tuples * int64(*senders)
		for i := 1; i <= *senders; i++ {
			h := core.HostID(i)
			spec.Senders = append(spec.Senders, h)
			w := workload.Spec{
				Name: "cli", Distinct: *distinct, Tuples: *tuples,
				Skew: *skew, Seed: *seed + int64(i),
				KeyLens: workload.NaturalLanguage(0),
			}
			streams[h] = w.Stream()
			want.Merge(w.Reference(core.OpSum), core.OpSum)
		}
	}

	var res *ask.TaskResult
	if len(timed) > 0 {
		res, err = cl.AggregateTimed(spec, timed)
	} else {
		res, err = cl.Aggregate(spec, streams)
	}
	if err != nil {
		fail("%v", err)
	}

	if *verify {
		if !res.Result.Equal(want) {
			fail("RESULT MISMATCH: %s", res.Result.Diff(want, 10))
		}
		fmt.Println("result verified exact against host-computed reference ✓")
	}

	el := time.Duration(res.Elapsed)
	fmt.Printf("\ntask completed in %v (virtual time)\n", el)
	fmt.Printf("  distinct result keys:  %d\n", len(res.Result))
	fmt.Printf("  aggregation rate:      %.1f M tuples/s\n", float64(total)/el.Seconds()/1e6)

	sw := res.Switch
	fmt.Printf("\nswitch:\n")
	fmt.Printf("  tuples aggregated:     %d / %d eligible (%.2f%%)\n",
		sw.TuplesAggregated, sw.TuplesIn, 100*sw.AggregatedTupleRatio())
	fmt.Printf("  packets fully ACKed:   %d / %d (%.2f%%)\n",
		sw.AckedPackets, sw.DataPackets, 100*sw.AckedPacketRatio())
	gs := cl.Switch.Stats()
	fmt.Printf("  dup pkts / stale pkts: %d / %d\n", gs.DupPackets, gs.StaleDropped)
	fmt.Printf("  shadow-copy swaps:     %d\n", gs.Swaps)

	fmt.Printf("\nreceiver (host 0):\n")
	fmt.Printf("  residue tuples:        %d\n", res.Recv.ResidueTuples)
	fmt.Printf("  long-key tuples:       %d\n", res.Recv.LongTuples)
	fmt.Printf("  switch entries merged: %d\n", res.Recv.SwitchEntries)
	fmt.Printf("  completed swaps:       %d\n", res.Recv.Swaps)

	fmt.Printf("\nnetwork:\n")
	for i := 1; i <= *senders; i++ {
		up := cl.Net.Uplink(core.HostID(i)).Stats()
		fmt.Printf("  host %d uplink:        %.2f Gbps wire, %.2f Gbps goodput, %d frames (%d dropped)\n",
			i, stats.Gbps(up.TxWireBytes, el), stats.Gbps(up.TxGoodBytes, el), up.TxFrames, up.Dropped)
	}
	down := cl.Net.Downlink(0).Stats()
	fmt.Printf("  receiver downlink:    %.2f Gbps wire (%d frames)\n", stats.Gbps(down.TxWireBytes, el), down.TxFrames)

	if *telem {
		if *promOut != "" {
			writeSnapshot(*promOut, func(w io.Writer) error {
				return telemetry.WritePrometheus(w, cl.Tel.Registry)
			})
		}
		if *jsonOut != "" {
			writeSnapshot(*jsonOut, cl.Tel.WriteJSON)
		}
		if *promOut == "" && *jsonOut == "" {
			fmt.Println()
			fmt.Println(telemetry.Report(cl.Tel.Registry).String())
			if tr := cl.Tel.Tracer; tr != nil {
				fmt.Printf("trace: %d events captured (%d dropped)\n", len(tr.Events()), tr.Dropped())
			}
		}
	}
}

package ask

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

func mrOptions(seed int64) MultiRackOptions {
	return MultiRackOptions{Racks: 3, HostsPerRack: 3, Seed: seed}
}

func TestMultiRackExactAcrossRacks(t *testing.T) {
	opts := mrOptions(1)
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver in rack 0; senders spread over all three racks.
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{opts.HostAt(0, 1), opts.HostAt(1, 0), opts.HostAt(2, 2)}
	streams := make(map[core.HostID]core.Stream)
	want := make(core.Result)
	for i, s := range senders {
		w := workload.Uniform(1024, 8000, int64(10+i))
		streams[s] = w.Stream()
		want.Merge(w.Reference(core.OpSum), core.OpSum)
	}
	res, err := mc.Aggregate(core.TaskSpec{
		ID: 1, Receiver: receiver, Senders: senders, Op: core.OpSum,
	}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Result.Equal(want) {
		t.Fatalf("multi-rack aggregation wrong: %s", res.Result.Diff(want, 8))
	}
	// §7 split: only the rack-local sender's tuples were eligible for INA
	// at the receiver's TOR (8000 of 24000); remote tuples took the host
	// path.
	if res.Switch.TuplesIn > 8100 || res.Switch.TuplesIn < 7000 {
		t.Fatalf("receiver TOR saw %d tuples; want ≈8000 (local sender only)", res.Switch.TuplesIn)
	}
	if res.Recv.ResidueTuples < 15000 {
		t.Fatalf("host aggregated %d residue tuples; remote traffic should be ≈16000", res.Recv.ResidueTuples)
	}
}

func TestMultiRackRemoteTORsHoldNoTaskState(t *testing.T) {
	opts := mrOptions(2)
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{opts.HostAt(1, 0)}
	w := workload.Uniform(512, 4000, 5)
	res, err := mc.Aggregate(core.TaskSpec{ID: 1, Receiver: receiver, Senders: senders, Op: core.OpSum},
		map[core.HostID]core.Stream{senders[0]: w.Stream()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Result.Equal(w.Reference(core.OpSum)) {
		t.Fatal("wrong result")
	}
	// The remote sender's TOR never allocated a region for the task and
	// aggregated nothing; it only maintained its own rack's flow state.
	remote := mc.TORs[1].TaskStatsOf(1)
	if remote.TuplesAggregated != 0 {
		t.Fatalf("remote TOR aggregated %d tuples", remote.TuplesAggregated)
	}
	if mc.TORs[1].RegionOf(1) != nil {
		t.Fatal("remote TOR holds a region for the task")
	}
	// All aggregation happened at the receiver host.
	if res.Recv.ResidueTuples != 4000 {
		t.Fatalf("residue = %d, want all 4000", res.Recv.ResidueTuples)
	}
}

func TestMultiRackLocalSendersGetINA(t *testing.T) {
	opts := mrOptions(3)
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(1, 0)
	local := opts.HostAt(1, 1)
	w := workload.Uniform(512, 6000, 7)
	res, err := mc.Aggregate(core.TaskSpec{ID: 1, Receiver: receiver, Senders: []core.HostID{local}, Op: core.OpSum},
		map[core.HostID]core.Stream{local: w.Stream()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Result.Equal(w.Reference(core.OpSum)) {
		t.Fatal("wrong result")
	}
	if ratio := res.Switch.AggregatedTupleRatio(); ratio < 0.95 {
		t.Fatalf("rack-local INA absorbed only %.1f%%", 100*ratio)
	}
}

func TestMultiRackExactUnderLoss(t *testing.T) {
	opts := mrOptions(4)
	opts.HostLink = netsim.DefaultLinkConfig()
	opts.HostLink.Fault.LossProb = 0.03
	opts.CoreLink = netsim.DefaultLinkConfig()
	opts.CoreLink.Fault.LossProb = 0.03
	opts.CoreLink.Fault.ReorderProb = 0.05
	opts.CoreLink.Fault.ReorderDelay = 40 * time.Microsecond
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{opts.HostAt(0, 1), opts.HostAt(1, 1), opts.HostAt(2, 0)}
	streams := make(map[core.HostID]core.Stream)
	want := make(core.Result)
	for i, s := range senders {
		w := workload.Zipf(800, 5000, 1.1, workload.Shuffled, int64(20+i))
		streams[s] = w.Stream()
		want.Merge(w.Reference(core.OpSum), core.OpSum)
	}
	res, err := mc.Aggregate(core.TaskSpec{ID: 1, Receiver: receiver, Senders: senders, Op: core.OpSum}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Result.Equal(want) {
		t.Fatalf("multi-rack lossy aggregation wrong: %s", res.Result.Diff(want, 8))
	}
}

func TestMultiRackValidation(t *testing.T) {
	if _, err := NewMultiRackCluster(MultiRackOptions{}); err == nil {
		t.Fatal("zero options accepted")
	}
	mc, err := NewMultiRackCluster(mrOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Aggregate(core.TaskSpec{ID: 1, Receiver: 99, Senders: []core.HostID{0}}, nil); err == nil {
		t.Fatal("unknown receiver accepted")
	}
	if _, err := mc.Aggregate(core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{77}},
		map[core.HostID]core.Stream{77: core.SliceStream(nil)}); err == nil {
		t.Fatal("unknown sender accepted")
	}
	if _, err := mc.Aggregate(core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}, nil); err == nil {
		t.Fatal("missing stream accepted")
	}
}

// TestMultiRackConcurrentTasksExact runs two tasks at once through
// StartTask, each receiving in a different rack with one rack-local and one
// remote sender: both must be exact, and each task's switch counters must
// come from its own receiver's TOR (the local sender's tuples only).
func TestMultiRackConcurrentTasksExact(t *testing.T) {
	opts := mrOptions(6)
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.TaskSpec{
		{ID: 1, Receiver: opts.HostAt(0, 0), Senders: []core.HostID{opts.HostAt(0, 1), opts.HostAt(2, 0)}, Op: core.OpSum},
		{ID: 2, Receiver: opts.HostAt(1, 0), Senders: []core.HostID{opts.HostAt(1, 1), opts.HostAt(2, 1)}, Op: core.OpSum},
	}
	const tuples = 6000
	pending := make([]*PendingTask, len(specs))
	wants := make([]core.Result, len(specs))
	for i, spec := range specs {
		streams := make(map[core.HostID]core.Stream)
		wants[i] = make(core.Result)
		for j, s := range spec.Senders {
			w := workload.Uniform(512, tuples, int64(20+2*i+j))
			streams[s] = w.Stream()
			wants[i].Merge(w.Reference(core.OpSum), core.OpSum)
		}
		if pending[i], err = mc.StartTask(spec, streams); err != nil {
			t.Fatal(err)
		}
	}
	mc.Sim.Run(0)
	for i, pt := range pending {
		res, err := pt.Get()
		if err != nil {
			t.Fatalf("task %d: %v", specs[i].ID, err)
		}
		if !res.Result.Equal(wants[i]) {
			t.Fatalf("task %d wrong: %s", specs[i].ID, res.Result.Diff(wants[i], 8))
		}
		if in := res.Switch.TuplesIn; in == 0 || in > tuples {
			t.Fatalf("task %d: receiver TOR saw %d tuples; want (0, %d] (local sender only)", specs[i].ID, in, tuples)
		}
		if res.Degraded != 0 {
			t.Fatalf("task %d: fault-free run reports degraded time %v", specs[i].ID, res.Degraded)
		}
	}
}

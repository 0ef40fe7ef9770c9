package ask

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// smallKeyStreams gives each sender n tuples over 256 short keys, so the
// switch state — and with it the teardown fetch — is the same whatever n.
func smallKeyStreams(senders []core.HostID, n int) (map[core.HostID]core.Stream, map[core.HostID][]core.KV) {
	streams := make(map[core.HostID]core.Stream)
	data := make(map[core.HostID][]core.KV)
	for _, s := range senders {
		kvs := make([]core.KV, n)
		for i := range kvs {
			kvs[i] = core.KV{Key: fmt.Sprintf("k%d", (i*7+int(s))%256), Val: int64(i%9 + 1)}
		}
		data[s] = kvs
		streams[s] = core.SliceStream(kvs)
	}
	return streams, data
}

// TestSteadyStateTransferNoHandoffs pins the event-driven host data path:
// the daemons' send and receive loops are kernel callbacks, so streaming
// more tuples through the same rack costs no extra goroutine handoff. Only
// the fixed per-task processes (driver, teardown, fetch) dispatch, and
// they do the same work for 2 k and 20 k tuples per sender.
func TestSteadyStateTransferNoHandoffs(t *testing.T) {
	dispatches := func(n int) uint64 {
		cl, err := NewCluster(Options{Hosts: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2, 3}}
		streams, data := smallKeyStreams(spec.Senders, n)
		res, err := cl.Aggregate(spec, streams)
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, res, spec.Op, data)
		return cl.Sim.ProcDispatches()
	}
	short, long := dispatches(2000), dispatches(20000)
	t.Logf("proc dispatches: %d at 2k tuples/sender, %d at 20k", short, long)
	if short != long {
		t.Fatalf("proc dispatches grow with the stream: %d at 2k tuples/sender, %d at 20k", short, long)
	}
	if short == 0 {
		t.Fatal("no proc dispatches counted: the task driver runs as a process")
	}
}

// settledGoroutines gives exiting goroutines (finished processes, earlier
// tests' shard workers) up to 100 ms to finish and returns the live count,
// early once it is at most limit.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > limit; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestClusterQuiescesWithoutGoroutines checks that a cluster run to
// quiescence leaves no goroutine behind: on a rack with failover off and
// on (the daemons' loops and the failover prober hold no goroutine, and
// every process a task spawns exits with it), and on both sharded fabrics,
// whose lane workers must not outlive Run whether they were polling or
// parked. A parked goroutine would keep its whole cluster reachable
// forever.
func TestClusterQuiescesWithoutGoroutines(t *testing.T) {
	// aggregate runs one exact task on a fresh cluster and returns its
	// shard group (nil for the rack, whose subtests are named failover=…).
	type shape struct {
		name      string
		aggregate func(t *testing.T) *sim.ShardGroup
	}
	rack := func(failover bool) func(t *testing.T) *sim.ShardGroup {
		return func(t *testing.T) *sim.ShardGroup {
			cfg := core.DefaultConfig()
			if failover {
				cfg.Failover, cfg.ShadowCopy = true, false
			}
			cl, err := NewCluster(Options{Hosts: 4, Seed: 5, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2, 3}}
			streams, data := smallKeyStreams(spec.Senders, 3000)
			res, err := cl.Aggregate(spec, streams)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, res, spec.Op, data)
			return nil
		}
	}
	shapes := []shape{
		{"failover=false", rack(false)},
		{"failover=true", rack(true)},
		{"multirack/shards=2", func(t *testing.T) *sim.ShardGroup {
			opts := MultiRackOptions{Racks: 4, HostsPerRack: 2, Seed: 5, Shards: 2}
			mc, err := NewMultiRackCluster(opts)
			if err != nil {
				t.Fatal(err)
			}
			spec := core.TaskSpec{ID: 1, Receiver: opts.HostAt(0, 0),
				Senders: []core.HostID{opts.HostAt(1, 0), opts.HostAt(2, 1), opts.HostAt(3, 0)}}
			streams, data := smallKeyStreams(spec.Senders, 3000)
			res, err := mc.Aggregate(spec, streams)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, res, spec.Op, data)
			return mc.Net.Group()
		}},
		{"fattree/shards=2", func(t *testing.T) *sim.ShardGroup {
			opts := FatTreeOptions{Spines: 2, Leaves: 4, HostsPerLeaf: 2, Seed: 5, Shards: 2}
			fc, err := NewFatTreeCluster(opts)
			if err != nil {
				t.Fatal(err)
			}
			spec := core.TaskSpec{ID: 1, Receiver: opts.HostAt(0, 0),
				Senders: []core.HostID{opts.HostAt(1, 0), opts.HostAt(2, 1), opts.HostAt(3, 0)}}
			streams, data := smallKeyStreams(spec.Senders, 3000)
			res, err := fc.Aggregate(spec, streams)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, res, spec.Op, data)
			return fc.Net.Group()
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			before := settledGoroutines(0)
			g := sh.aggregate(t)
			if after := settledGoroutines(before); after > before {
				t.Fatalf("%d goroutines after the cluster quiesced, %d before it was built", after, before)
			}
			if g != nil && g.Stats().ParallelWindows == 0 {
				t.Fatalf("sharded run never released a lane worker: %+v", g.Stats())
			}
		})
	}
}

// TestZeroSendersRejectedEverywhere: every cluster shape validates a task
// spec up front, in one order and with the same error text — a task
// without senders first (instead of starting a receiver that waits
// forever), then the receiver, then each sender and its stream.
func TestZeroSendersRejectedEverywhere(t *testing.T) {
	stream := map[core.HostID]core.Stream{1: core.SliceStream(nil), 77: core.SliceStream(nil)}
	cases := []struct {
		name    string
		spec    core.TaskSpec
		streams map[core.HostID]core.Stream
		want    string
	}{
		{"no-senders", core.TaskSpec{ID: 7, Receiver: 0}, nil, "ask: task 7 has no senders"},
		{"no-senders-unknown-receiver", core.TaskSpec{ID: 7, Receiver: 99}, nil, "ask: task 7 has no senders"},
		{"unknown-receiver", core.TaskSpec{ID: 7, Receiver: 99, Senders: []core.HostID{77}}, stream, "ask: receiver host 99 not in cluster"},
		{"unknown-sender", core.TaskSpec{ID: 7, Receiver: 0, Senders: []core.HostID{1, 77}}, stream, "ask: sender host 77 not in cluster"},
		{"missing-stream", core.TaskSpec{ID: 7, Receiver: 0, Senders: []core.HostID{1}}, nil, "ask: no stream for sender host 1"},
	}
	type aggregator interface {
		Aggregate(core.TaskSpec, map[core.HostID]core.Stream) (*TaskResult, error)
	}
	shapes := []struct {
		name  string
		build func() (aggregator, error)
	}{
		{"rack", func() (aggregator, error) { return NewCluster(Options{Hosts: 2}) }},
		{"multirack", func() (aggregator, error) { return NewMultiRackCluster(mrOptions(1)) }},
		{"fattree", func() (aggregator, error) { return NewFatTreeCluster(ftOptions(1)) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cl, err := sh.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					_, err := cl.Aggregate(tc.spec, tc.streams)
					if err == nil || err.Error() != tc.want {
						t.Fatalf("got error %v, want %q", err, tc.want)
					}
				})
			}
		})
	}
}

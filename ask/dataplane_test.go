package ask

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
// quiescence leaves no goroutine behind, with failover off and on: the
// daemons' loops and the failover prober hold no goroutine, and every
// process a task spawns exits with it. A parked goroutine would keep its
// whole cluster reachable forever.
func TestClusterQuiescesWithoutGoroutines(t *testing.T) {
	for _, failover := range []bool{false, true} {
		t.Run(fmt.Sprintf("failover=%v", failover), func(t *testing.T) {
			before := settledGoroutines(0)
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
			if after := settledGoroutines(before); after > before {
				t.Fatalf("%d goroutines after the cluster quiesced, %d before it was built", after, before)
			}
		})
	}
}

// TestZeroSendersRejectedEverywhere: every cluster shape rejects a task
// without senders up front with the same error, instead of starting a
// receiver that waits forever.
func TestZeroSendersRejectedEverywhere(t *testing.T) {
	spec := core.TaskSpec{ID: 7, Receiver: 0}
	shapes := []struct {
		name string
		run  func() error
	}{
		{"rack", func() error {
			cl, err := NewCluster(Options{Hosts: 2})
			if err != nil {
				return err
			}
			_, err = cl.Aggregate(spec, nil)
			return err
		}},
		{"multirack", func() error {
			mc, err := NewMultiRackCluster(mrOptions(1))
			if err != nil {
				return err
			}
			_, err = mc.Aggregate(spec, nil)
			return err
		}},
		{"fattree", func() error {
			fc, err := NewFatTreeCluster(ftOptions(1))
			if err != nil {
				return err
			}
			_, err = fc.Aggregate(spec, nil)
			return err
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			err := sh.run()
			if err == nil || !strings.Contains(err.Error(), "task 7 has no senders") {
				t.Fatalf("zero-sender task: got error %v, want \"task 7 has no senders\"", err)
			}
		})
	}
}

package ask

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestPoolPoisonSoak runs full aggregations with use-after-release poisoning
// enabled on the packet free list. Any spot in switchd/hostd/netsim that
// releases a packet while another reference is still live would read the
// sentinel values and corrupt the result (or trip a decode error), so an
// exact result here is an end-to-end proof of the ownership discipline
// described in wire/pool.go.
//
// The fault mix deliberately exercises every release path: loss and
// blackholed duplicates (release at the link), reordering (delivery from the
// kernel's timer path), duplication (multi-copy delivery where clone elision
// must NOT kick in), and enough traffic to force swaps, fetches, and
// long-key spills.
func TestPoolPoisonSoak(t *testing.T) {
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)

	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.03
	link.Fault.DupProb = 0.03
	link.Fault.ReorderProb = 0.05
	link.Fault.ReorderDelay = 30 * time.Microsecond

	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2, 3}}
	data := map[core.HostID][]core.KV{
		1: genStream(101, 6000, 300),
		2: genStream(102, 6000, 300),
		3: genStream(103, 6000, 300),
	}
	res := run(t, Options{Hosts: 4, Seed: 11, Link: link}, spec, data)
	checkExact(t, res, core.OpSum, data)
	if res.Switch.TuplesAggregated == 0 {
		t.Fatal("switch aggregated nothing under poison soak")
	}
}

// TestPoolPoisonDeterminism proves pooling cannot perturb results: the same
// seed must produce an identical aggregate and identical virtual elapsed
// time with poisoning on and off (poison only rewrites dead storage).
func TestPoolPoisonDeterminism(t *testing.T) {
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}}
	data := map[core.HostID][]core.KV{
		1: genStream(104, 4000, 200),
		2: genStream(105, 4000, 200),
	}
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.02
	link.Fault.DupProb = 0.02

	runOnce := func(poison bool) *TaskResult {
		wire.SetPoolPoison(poison)
		defer wire.SetPoolPoison(false)
		return run(t, Options{Hosts: 3, Seed: 21, Link: link}, spec, data)
	}
	a := runOnce(false)
	b := runOnce(true)
	if !a.Result.Equal(b.Result) {
		t.Fatalf("poison mode changed the aggregate: %s", a.Result.Diff(b.Result, 8))
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("poison mode changed virtual time: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestAckedDataPacketsPoisoned pins the sending side of the ownership
// rules: a data packet the packetizer drew from the pool goes back to it
// when the window hands it over on its ACK, unless failover history can
// still replay it. Loss and duplication make the windows retransmit and
// take ACKs for packets that have several copies in flight; in the
// failover run a mid-stream switch reboot makes every sender replay its
// history. A packet released too early would be read as sentinels by a
// retransmission or a replay, so both runs must stay exact under poison.
func TestAckedDataPacketsPoisoned(t *testing.T) {
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)

	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.02
	link.Fault.DupProb = 0.03
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2, 3}}
	data := map[core.HostID][]core.KV{
		1: genStream(111, 8000, 400),
		2: genStream(112, 8000, 400),
		3: genStream(113, 8000, 400),
	}
	aggregate := func(t *testing.T, cl *Cluster) *TaskResult {
		t.Helper()
		streams := make(map[core.HostID]core.Stream, len(data))
		for h, kvs := range data {
			streams[h] = core.SliceStream(kvs)
		}
		res, err := cl.Aggregate(spec, streams)
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, res, spec.Op, data)
		return res
	}
	retransmits := func(cl *Cluster) (n int64) {
		for _, h := range spec.Senders {
			for _, st := range cl.Daemon(h).ChannelStats() {
				n += st.Retransmits
			}
		}
		return n
	}

	t.Run("failover=false", func(t *testing.T) {
		cl, err := NewCluster(Options{Hosts: 4, Seed: 13, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		aggregate(t, cl)
		if retransmits(cl) == 0 {
			t.Fatal("no retransmissions: the lossy run did not exercise ACKs of resent packets")
		}
	})

	t.Run("failover=true", func(t *testing.T) {
		cfg := core.DefaultConfig()
		cfg.Failover, cfg.ShadowCopy = true, false
		opts := Options{Hosts: 4, Seed: 13, Link: link, Config: cfg}
		golden, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		scale := aggregate(t, golden).Elapsed
		cl, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		start := cl.Sim.Now()
		cl.Sim.At(start+scale*2/5, func() { _ = cl.CrashSwitch(TheSwitch) })
		cl.Sim.At(start+scale*3/5, func() { _ = cl.RebootSwitch(TheSwitch) })
		aggregate(t, cl)
		var replays int64
		for _, h := range spec.Senders {
			replays += cl.Daemon(h).FailoverStats().ReplaysSent
		}
		if replays == 0 {
			t.Fatal("no replays sent: the reboot did not exercise failover history")
		}
	})
}

package ask

// Hierarchical failover for the fat-tree fabric (README "Failure model").
//
// The rack's epoch protocol generalizes to the spine/leaf fabric through one
// rule: the fabric shares a single epoch. Every switch outage event — a
// crash AND the later reboot — advances FatTreeCluster's fabricEpoch, and
// the controller synchronously (a) pushes the new epoch into every live
// switch (switchd.SetEpoch) and (b) frees every task's regions fabric-wide.
// Hosts observe the new incarnation through whatever stamped packet reaches
// them first (leaf-terminated probe replies, ACKs) and run the unchanged
// hostd recovery: re-register flows at their current window position, replay
// retained history as host-only bypass traffic, re-allocate regions.
//
// Freeing ALL regions at every bump — rather than keeping survivors on
// switches that did not crash — is what makes exactly-one-absorption hold
// across tiers. A surviving region would keep absorbing old-epoch packets
// still in flight after the bump while the sender replays the same records
// (double count), and conversely a region kept across the bump could absorb
// new-epoch traffic whose history records then carry absorbEpoch equal to
// the live registration, which replay skips (lost tuples). With the bump
// acting as a fabric-wide barrier, every tuple is either already claimed at
// the receiver (the claimBits ledger keeps replays from re-counting it) or
// recovered by replay; absorbed-but-unfetched state anywhere on the tree is
// discarded and replayed exactly once.
//
// Spine outages re-elect: netsim.SpineFor walks the task-hashed candidate
// order (h, h+1, ...) and returns the first live spine, so routing and
// region placement move together. Spines run sequence-tagged seen state, so
// the re-elected spine tolerates the mid-stream sequence jump. With no live
// spine the task degrades to leaf-only absorption plus host merge. Leaf
// outages cut that leaf's hosts off entirely; they degrade via probe
// timeouts and recover — replaying their history, restoring cross-leaf
// residue — at the heal-time bump.

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// DegradedError is the typed degradation signal returned by fabric
// control-plane operations (region allocation, flow re-registration) while
// the switches they need are down; match with errors.As. See
// core.DegradedError for the fields.
type DegradedError = core.DegradedError

// FabricEpoch returns the fabric-wide incarnation number (starts at 1; each
// switch crash and each reboot advances it by one).
func (fc *FatTreeCluster) FabricEpoch() uint32 { return fc.fabricEpoch }

// setNetDown mirrors a switch's crash state into the fabric's routing.
func (fc *FatTreeCluster) setNetDown(addr core.HostID, down bool) {
	if sp, ok := netsim.SpineIndex(addr, len(fc.Spines)); ok {
		fc.Net.SetSpineDown(sp, down)
		return
	}
	if l, ok := netsim.LeafIndex(addr, len(fc.Leaves)); ok {
		fc.Net.SetLeafDown(l, down)
	}
}

// liveSpine returns the task's spine after re-election: the first live
// candidate in task-hashed order, matching netsim's frame routing. ok is
// false when every spine is down.
func (fc *FatTreeCluster) liveSpine(t core.TaskID) (int, bool) {
	s := fc.Net.SpineFor(t)
	if fc.Net.SpineIsDown(s) {
		return 0, false
	}
	return s, true
}

// CrashSwitch takes the switch at fabric address addr down: the switch
// black-holes every frame (and, for a leaf, so does its host-delivery
// path), and the fabric epoch advances so live switches and hosts converge
// on the new incarnation. Crashing an already-crashed switch is a no-op.
// It returns an error when addr names no switch in this fabric or the
// deployment was built without Config.Failover (a crash would deadlock
// in-flight tasks).
func (fc *FatTreeCluster) CrashSwitch(addr core.HostID) error {
	return fc.setSwitchDown("CrashSwitch", addr, true)
}

// RebootSwitch brings the switch at fabric address addr back up as a fresh
// incarnation (its state wiped, exactly like the rack's reboot) and
// advances the fabric epoch again, which triggers the fabric-wide recovery
// that re-registers flows and re-allocates regions on the healed topology.
// It returns an error under the same conditions as CrashSwitch.
func (fc *FatTreeCluster) RebootSwitch(addr core.HostID) error {
	return fc.setSwitchDown("RebootSwitch", addr, false)
}

func (fc *FatTreeCluster) setSwitchDown(op string, addr core.HostID, down bool) error {
	if !fc.cfg.Failover {
		return fmt.Errorf("ask: %s requires Config.Failover", op)
	}
	sw := fc.switchAt(addr)
	switch {
	case sw == nil:
		return fmt.Errorf("ask: no switch at fabric address %#x", addr)
	case !down:
		sw.Reboot()
	case sw.Down():
		return nil
	default:
		sw.Crash()
	}
	fc.setNetDown(addr, down)
	fc.bumpFabricEpoch()
	return nil
}

// bumpFabricEpoch advances the fabric-wide incarnation: every live switch
// is stamped with the new epoch and every task's regions are discarded
// fabric-wide (see the package comment above for why freeing at the bump —
// not re-using surviving regions — is what keeps exactly-one-absorption).
// Tenancy rows return to their quotas; receivers re-admit on re-attach.
func (fc *FatTreeCluster) bumpFabricEpoch() {
	fc.fabricEpoch++
	for _, sw := range fc.Leaves {
		if !sw.Down() {
			sw.SetEpoch(fc.fabricEpoch)
		}
	}
	for _, sw := range fc.Spines {
		if !sw.Down() {
			sw.SetEpoch(fc.fabricEpoch)
		}
	}
	// Sorted task order: map iteration order must not leak into the event
	// sequence (simdeterminism).
	ids := make([]core.TaskID, 0, len(fc.allocs))
	for id := range fc.allocs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		points := fc.allocs[id].points
		fc.dropAlloc(id)
		for _, addr := range points {
			if sw := fc.switchAt(addr); !sw.Down() {
				_ = sw.FreeRegion(id)
			}
		}
	}
	if fc.Tel != nil {
		fc.Tel.Registry.Counter("fabric.epoch_bumps").Inc()
		fc.Tel.Tracer.EmitNote(telemetry.CompChaos, "fabric_epoch",
			int64(fc.fabricEpoch), fmt.Sprintf("epoch %d, %d regions discarded", fc.fabricEpoch, len(ids)))
	}
}

// HostUplink returns a host's uplink to its leaf (fault injection, stats).
func (fc *FatTreeCluster) HostUplink(h core.HostID) *netsim.Link { return fc.Net.Uplink(h) }

// HostDownlink returns a host's downlink from its leaf.
func (fc *FatTreeCluster) HostDownlink(h core.HostID) *netsim.Link { return fc.Net.Downlink(h) }

// RevokeRegion always returns an error on the fat-tree: a task's absorbed
// state is spread over several aggregation points and the single-point
// revocation drain cannot reclaim it exactly-once. Rack clusters support
// it; fabric capacity pressure is modeled by admission control instead.
func (fc *FatTreeCluster) RevokeRegion(task core.TaskID, receiver core.HostID) error {
	return fmt.Errorf("ask: RevokeRegion is not supported on the fat-tree (task %d spans multiple aggregation points)", task)
}

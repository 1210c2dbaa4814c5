package ksm

import (
	"testing"

	"repro/internal/mem"
)

// TestHugeScanIgnoresPromotedUnstablePartner is the stale-partner regression
// for a huge-mapped candidate: an unstable-index entry whose page has since
// been promoted to a KSM frame is dead, however well its recorded checksum
// still matches the (write-protected, shared) content. Without the IsKSM test
// in the unstable walk the stale entry vouched for a "duplicate found" verdict
// and split a huge mapping that the stable-tree lookup had already declined
// to split.
func TestHugeScanIgnoresPromotedUnstablePartner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitHugePages = true
	cfg.ChecksumGate = false // let the first sighting reach the merge pipeline
	f := newFixture(t, 8*hp, 2, 2*hp, cfg)
	base, huge := f.vms[0], f.vms[1]
	huge.FillGuestPage(0, mem.Seed(4000))
	for i := uint64(1); i < hp; i++ {
		huge.FillGuestPage(i, mem.Seed(5000+i))
	}
	if got := huge.CollapseHuge(huge.MemslotBase(), 0); got.String() != "ok" {
		t.Fatalf("setup collapse: %v", got)
	}
	base.FillGuestPage(0, mem.Seed(4000))

	// Fabricate the stale state the retained index of incremental mode can
	// reach: base's page 0 sits in the unstable index, but its frame has been
	// promoted to a KSM page without the entry being removed. The recorded
	// checksum still matches the (write-protected) content.
	pm := f.host.Phys()
	vpn := base.MemslotBase()
	frame, ok := base.ResolveResident(vpn)
	if !ok {
		t.Fatal("setup: base page not resident")
	}
	f.k.plantUnstable(pageKey{vm: base, vpn: vpn}, pm.Checksum(frame))
	pm.SetKSM(frame, true)
	base.WriteProtect(vpn)

	// Scan up to and including the huge run's head subpage, whose content
	// matches the stale entry byte for byte. A KSM partner must not justify a
	// split: the stable tree (empty here) is the only authority on stable
	// content.
	f.k.ScanChunk(2*hp + 1)
	s := f.k.Stats()
	if s.HugeSplits != 0 {
		t.Fatalf("stale KSM-frame partner split the huge mapping (%d splits)", s.HugeSplits)
	}
	if huge.HugeMappings() != 1 {
		t.Fatal("huge mapping dissolved")
	}
}

// TestIncrementalRoundResnapshotsPassBaseline is the per-pass gauge regression
// (satellite): endPass never runs again once the scanner goes incremental, so
// unless every round re-snapshots passStart, the ksm.pass.* gauges silently
// turn into cumulative-since-switch counters.
func TestIncrementalRoundResnapshotsPassBaseline(t *testing.T) {
	f := newDirtyFixture(t, 512, 2, 32, 0, incrementalConfig())
	f.k.ScanChunk(64)
	f.k.ScanChunk(64)
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	// Round 1: one dirtied page (gate first sighting, deferred).
	f.vms[0].FillGuestPage(3, mem.Seed(9001))
	before := f.k.stats.PagesScanned
	f.k.ScanChunk(64)
	if f.k.passStart.PagesScanned != before {
		t.Fatalf("round 1 baseline = %d, want the round-start snapshot %d",
			f.k.passStart.PagesScanned, before)
	}
	if got := f.k.stats.PagesScanned - f.k.passStart.PagesScanned; got != 1 {
		t.Fatalf("round 1 per-pass delta = %d, want 1", got)
	}
	// Round 2: the deferred revisit. The baseline must advance again — under
	// the bug it stayed frozen at the mode-switch snapshot forever.
	before = f.k.stats.PagesScanned
	f.k.ScanChunk(64)
	if f.k.passStart.PagesScanned != before {
		t.Fatalf("round 2 baseline = %d, want %d (stale pass snapshot?)",
			f.k.passStart.PagesScanned, before)
	}
	// Idle round: baseline advances to the current counters, delta zero.
	before = f.k.stats.PagesScanned
	f.k.ScanChunk(64)
	if f.k.passStart.PagesScanned != before || f.k.stats.PagesScanned != before {
		t.Fatalf("idle round: baseline %d, scanned %d, want both %d",
			f.k.passStart.PagesScanned, f.k.stats.PagesScanned, before)
	}
}

// TestUnregisterOnlyVMMidPassEndsPass is the empty-scan-list half of the
// pass-boundary regression (satellite): unregistering the only VM mid-pass
// empties the pass in flight, whose zero survivors were all, vacuously,
// scanned. A `len(regions) > 0` guard once swallowed exactly this endPass,
// leaking the unstable index and the FullScans/streak count.
func TestUnregisterOnlyVMMidPassEndsPass(t *testing.T) {
	f := newFixture(t, 256, 1, 16, DefaultConfig())
	for i := uint64(0); i < 16; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(40+i))
	}
	f.k.ScanChunk(16) // exactly pass 1: volatility-gate first sightings
	f.k.ScanChunk(8)  // mid-pass 2: 8 second sightings land in the index
	if f.k.index.unstableN != 8 {
		t.Fatalf("unstable entries mid-pass = %d, want 8", f.k.index.unstableN)
	}
	f.k.Unregister(f.vms[0])
	s := f.k.Stats()
	if s.FullScans != 2 {
		t.Fatalf("FullScans = %d after last-region unregister, want 2", s.FullScans)
	}
	if f.k.index.unstableN != 0 {
		t.Fatalf("unstable index survived the vacuous pass boundary: %d entries",
			f.k.index.unstableN)
	}
	// The emptied scanner must idle cleanly.
	f.k.ScanChunk(64)
	if got := f.k.Stats(); got.PagesScanned != s.PagesScanned || got.FullScans != 2 {
		t.Fatalf("empty scanner did work: %+v", got)
	}
}

// TestDrainedIncrementalQueueReleasesBacking (satellite): consuming the round
// via queue[1:] pins every drained range — head included — in the backing
// array; a fully drained queue must drop to nil so a converged idle phase
// holds no round-sized allocation.
func TestDrainedIncrementalQueueReleasesBacking(t *testing.T) {
	f := newDirtyFixture(t, 512, 2, 32, 0, incrementalConfig())
	f.k.ScanChunk(64)
	f.k.ScanChunk(64)
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	for i := uint64(0); i < 6; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(7000+i))
	}
	f.k.ScanChunk(64) // drains the whole round
	if f.k.queue != nil {
		t.Fatalf("drained queue retains backing array (cap %d)", cap(f.k.queue))
	}
	// A partially drained round must keep its remainder.
	for i := uint64(0); i < 6; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(8000+i))
	}
	f.k.ScanChunk(3)
	if len(f.k.queue) == 0 {
		t.Fatal("partially drained round lost its remaining work")
	}
	f.k.ScanChunk(64)
	if f.k.queue != nil {
		t.Fatal("queue backing array retained after the round finished")
	}
}

// TestDirtyRingDepthGaugeAllocFree (satellite): the ring-depth gauge walks the
// maintained unique-VM list — correct against a manual sum, tracking
// Unregister, and allocation-free per sample (the old version rebuilt a dedup
// map over the region list on every metrics tick).
func TestDirtyRingDepthGaugeAllocFree(t *testing.T) {
	f := newDirtyFixture(t, 512, 3, 16, 0, incrementalConfig())
	f.vms[0].FillGuestPage(1, mem.Seed(7))
	f.vms[0].FillGuestPage(2, mem.Seed(8))
	f.vms[1].FillGuestPage(3, mem.Seed(9))
	want := 0
	for _, vm := range f.vms {
		want += vm.DirtyLogDepth()
	}
	if want == 0 {
		t.Fatal("fixture produced no ring depth")
	}
	if got := f.k.DirtyRingDepth(); got != want {
		t.Fatalf("DirtyRingDepth = %d, want %d", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = f.k.DirtyRingDepth() }); avg != 0 {
		t.Fatalf("DirtyRingDepth allocates %.1f objects per sample, want 0", avg)
	}
	f.k.Unregister(f.vms[0])
	want = f.vms[1].DirtyLogDepth() + f.vms[2].DirtyLogDepth()
	if got := f.k.DirtyRingDepth(); got != want {
		t.Fatalf("DirtyRingDepth after unregister = %d, want %d", got, want)
	}
}

package ksm

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

// forceParallel drops the batch-size threshold so every batch — even the
// one-page pass-straddler — is fanned out: classify, the shard workers, then
// apply. Restored on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := minParallelBatch
	minParallelBatch = 1
	t.Cleanup(func() { minParallelBatch = old })
}

// shardOutcome is everything a figure can observe from a scanner run: the
// statistics word for word, the stable frames, the physical frame behind
// every guest page, and the pool occupancy before and after an unmerge (which
// frees every stable frame). Byte-identity of this struct across shard counts
// is the tentpole contract.
type shardOutcome struct {
	stats        Stats
	stable       []mem.FrameID
	frames       [][]int64
	inUse        int
	routed       uint64
	afterUnmerge int
}

// routedPages sums the per-shard routed-candidate counts.
func routedPages(k *KSM) (total uint64) {
	for _, n := range k.ShardPagesScanned() {
		total += n
	}
	return total
}

func captureOutcome(f *fixture) shardOutcome {
	o := shardOutcome{
		stats:  f.k.Stats(),
		stable: f.k.StableFrames(),
		inUse:  f.host.Phys().FramesInUse(),
	}
	for _, vm := range f.vms {
		row := make([]int64, vm.GuestPages())
		for i := range row {
			row[i] = -1
			if fr, ok := vm.ResolveResident(vm.MemslotBase() + mem.VPN(i)); ok {
				row[i] = int64(fr)
			}
		}
		o.frames = append(o.frames, row)
	}
	o.routed = routedPages(f.k)
	f.k.Unmerge()
	o.afterUnmerge = f.host.Phys().FramesInUse()
	return o
}

// TestShardedLinearMatchesUnsharded is the tentpole equivalence test: the same
// scripted workload — cross-VM duplicates, intra-VM duplicates, uniques,
// post-convergence churn that COW-breaks merged pages, and a mid-run
// unregister — must leave identical stats, an identical stable tree, and the
// same frame behind every page at shard counts 1, 2 and 4. The threshold is
// forced down so the 2- and 4-shard runs really take the parallel pipeline.
func TestShardedLinearMatchesUnsharded(t *testing.T) {
	forceParallel(t)
	run := func(shards int) shardOutcome {
		cfg := DefaultConfig()
		cfg.Shards = shards
		f := newFixture(t, 2048, 3, 24, cfg)
		for vi, vm := range f.vms {
			for i := uint64(0); i < 8; i++ {
				vm.FillGuestPage(i, mem.Seed(100+i)) // duplicated across all VMs
			}
			vm.FillGuestPage(8, mem.Seed(50)) // duplicated within and across VMs
			vm.FillGuestPage(9, mem.Seed(50))
			for i := uint64(10); i < 20; i++ {
				vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*1000+i)) // unique
			}
		}
		f.scanPasses(3)
		// Churn: break two shared pages with a fresh duplicate pair, and point
		// a unique page at already-stable content.
		f.vms[0].FillGuestPage(2, mem.Seed(9001))
		f.vms[1].FillGuestPage(2, mem.Seed(9001))
		f.vms[2].FillGuestPage(15, mem.Seed(103))
		f.scanPasses(3)
		f.k.Unregister(f.vms[1])
		f.scanPasses(2)
		return captureOutcome(f)
	}
	base := run(1)
	if base.stats.StableMerges == 0 || base.stats.UnstableMerges == 0 || base.stats.COWBreaks == 0 {
		t.Fatalf("scenario too tame to prove anything: %+v", base.stats)
	}
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from unsharded:\nbase %+v\ngot  %+v", n, base, got)
		}
	}
}

// TestShardedIncrementalMatchesUnsharded: the same contract over the
// dirty-ring path — the retained unstable index, gate-skip deferrals and
// event-gated prunes all live behind the sharded structures too.
func TestShardedIncrementalMatchesUnsharded(t *testing.T) {
	forceParallel(t)
	run := func(shards int) shardOutcome {
		cfg := incrementalConfig()
		cfg.Shards = shards
		f := newDirtyFixture(t, 2048, 3, 32, 0, cfg)
		for _, vm := range f.vms {
			for i := uint64(0); i < 8; i++ {
				vm.FillGuestPage(i, mem.Seed(500+i))
			}
		}
		f.k.ScanChunk(96)
		f.k.ScanChunk(96)
		if !f.k.incremental {
			t.Fatal("not incremental after two passes")
		}
		// Post-convergence churn: break shared pages, seed a new duplicate
		// pair, and rewrite a private page; then several rounds so the
		// two-sighting gate resolves everything.
		f.vms[0].FillGuestPage(2, mem.Seed(9001))
		f.vms[1].FillGuestPage(20, mem.Seed(8000))
		f.vms[2].FillGuestPage(20, mem.Seed(8000))
		f.vms[2].FillGuestPage(25, mem.Seed(8500))
		for i := 0; i < 4; i++ {
			f.k.ScanChunk(96)
		}
		return captureOutcome(f)
	}
	base := run(1)
	if base.stats.IncrementalScanned == 0 {
		t.Fatal("scenario never used the incremental queue")
	}
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from unsharded:\nbase %+v\ngot  %+v", n, base, got)
		}
	}
}

// TestShardedLargeBatchMatchesSerial runs pass-sized batches above the real
// dispatch threshold (no override), so the production worker pool actually
// fans out — and, under the CI -race run of this package, its synchronization
// is exercised at full batch width. Beyond statistics, tree and frame
// assignment it compares the content store: the workers' read-only views
// must leave exactly the blobs interned that the serial scanner's mutating
// comparisons do. InternHits is the one counter left out. It counts frames
// attached to an existing blob, and a probe that meets a same-seed node
// promoted earlier in its own batch differs there by design: the serial
// scanner finds the node already materialized and reads the probe's bytes
// (one hit), a worker finds it still seeded — materialization waits for the
// commit — and answers from the descriptors. No blob, no byte and no merge
// depends on it.
func TestShardedLargeBatchMatchesSerial(t *testing.T) {
	type outcome struct {
		shardOutcome
		materialized uint64
		content      mem.ContentStats
	}
	run := func(shards int) outcome {
		cfg := DefaultConfig()
		cfg.Shards = shards
		f := newFixture(t, 4096, 4, 128, cfg)
		for vi, vm := range f.vms {
			for i := uint64(0); i < 64; i++ {
				vm.FillGuestPage(i, mem.Seed(100+i))
			}
			for i := uint64(64); i < 96; i++ {
				vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*10000+i))
			}
		}
		f.scanPasses(3)
		f.vms[0].FillGuestPage(5, mem.Seed(31337))
		f.vms[3].FillGuestPage(70, mem.Seed(107))
		f.scanPasses(2)
		pm := f.host.Phys()
		o := outcome{materialized: pm.Stats().Materialized, content: pm.ContentStats()}
		o.content.InternHits = 0
		o.shardOutcome = captureOutcome(f)
		return o
	}
	base := run(1)
	if base.materialized == 0 {
		t.Fatal("scenario materialized nothing: the content comparison proves nothing")
	}
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from serial:\nbase %+v\ngot  %+v", n, base, got)
		}
	}
}

// TestShardedMultiLeafTablesMatchSerial: guests big enough that each host
// page table spans several leaves of the radix table, so the classify workers
// walk different leaves of one table at the same moment. The fixtures above
// keep a whole guest inside one leaf, where nothing a read path remembers
// between lookups could ever change value; here a memoising Lookup shows up
// as a -race report, or as per-shard counts that differ between two runs.
func TestShardedMultiLeafTablesMatchSerial(t *testing.T) {
	forceParallel(t)
	const guestPages = 2048 + 256
	type outcome struct {
		shardOutcome
		perShard []uint64
	}
	run := func(shards int) outcome {
		cfg := DefaultConfig()
		cfg.Shards = shards
		f := newFixture(t, 3*guestPages, 2, guestPages, cfg)
		for vi, vm := range f.vms {
			for i := uint64(0); i < guestPages; i++ {
				seed := mem.Seed(100 + i) // every third page duplicated across the VMs
				if i%3 != 0 {
					seed = mem.Seed(uint64(vi+1)*100000 + i)
				}
				vm.FillGuestPage(i, seed)
			}
		}
		f.scanPasses(3)
		// Churn in the first, a middle and the last leaf of each table: a
		// fresh duplicate pair over two shared pages, and a unique page
		// pointed at content that is already stable.
		for _, i := range []uint64{3, 1029, guestPages - 6} {
			f.vms[0].FillGuestPage(i, mem.Seed(70000+i))
			f.vms[1].FillGuestPage(i, mem.Seed(70000+i))
			f.vms[1].FillGuestPage(i+2, mem.Seed(100+i+3))
		}
		f.scanPasses(3)
		o := outcome{perShard: f.k.ShardPagesScanned()}
		o.shardOutcome = captureOutcome(f)
		return o
	}
	base := run(1)
	if base.stats.StableMerges == 0 || base.stats.UnstableMerges == 0 || base.stats.COWBreaks == 0 {
		t.Fatalf("scenario too tame to prove anything: %+v", base.stats)
	}
	first := run(4)
	if !reflect.DeepEqual(first.shardOutcome, base.shardOutcome) {
		t.Fatalf("shards=4 diverged from unsharded:\nbase %+v\ngot  %+v", base.stats, first.stats)
	}
	if again := run(4); !reflect.DeepEqual(again, first) {
		t.Fatalf("two shards=4 runs differ: per-shard %v then %v", first.perShard, again.perShard)
	}
}

// TestShardRoutingSpreadsWork: the checksum partition must actually spread
// routed candidates over the shards rather than collapsing onto one, and the
// per-shard counts must sum to the total routed work.
func TestShardRoutingSpreadsWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	f := newFixture(t, 1024, 2, 32, cfg)
	for i := uint64(0); i < 32; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(3000+i))
		f.vms[1].FillGuestPage(i, mem.Seed(3000+i))
	}
	f.scanPasses(3)
	counts := f.k.ShardPagesScanned()
	if len(counts) != 4 {
		t.Fatalf("ShardPagesScanned returned %d shards, want 4", len(counts))
	}
	var total uint64
	busy := 0
	for _, n := range counts {
		total += n
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("checksum routing collapsed onto %d shard(s): %v", busy, counts)
	}
	// Every scanned page here is resident and never already-shared at
	// checksum time in pass 1-2; compare against the routed subset.
	s := f.k.Stats()
	if want := s.PagesScanned - s.AlreadyShared - s.NotResident; total != want {
		t.Fatalf("per-shard counts sum to %d, want %d (%v)", total, want, counts)
	}
}

// TestHugeScanIgnoresPromotedUnstablePartner is the stale-partner regression
// for a huge-mapped candidate: an unstable-index entry whose page has since
// been promoted to a KSM frame is dead, however well its recorded checksum
// still matches the (write-protected, shared) content. Without the IsKSM test
// in the bucket walk the stale entry vouched for a "duplicate found" verdict
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
	sum := pm.Checksum(frame)
	sh := f.k.shardOf(sum)
	sh.unstable[sum] = append(sh.unstable[sum], unstableEntry{key: pageKey{vm: base, vpn: vpn}, checksum: sum})
	sh.unstableN++
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
// wraps the cursor past a list with zero survivors — all of which were,
// vacuously, scanned — and the old `len(regions) > 0` guard swallowed exactly
// this endPass, leaking the unstable index and the FullScans/streak count.
func TestUnregisterOnlyVMMidPassEndsPass(t *testing.T) {
	f := newFixture(t, 256, 1, 16, DefaultConfig())
	for i := uint64(0); i < 16; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(40+i))
	}
	f.k.ScanChunk(16) // exactly pass 1: volatility-gate first sightings
	f.k.ScanChunk(8)  // mid-pass 2: 8 second sightings land in the index
	if f.k.unstableTotal() != 8 {
		t.Fatalf("unstable entries mid-pass = %d, want 8", f.k.unstableTotal())
	}
	f.k.Unregister(f.vms[0])
	s := f.k.Stats()
	if s.FullScans != 2 {
		t.Fatalf("FullScans = %d after last-region unregister, want 2", s.FullScans)
	}
	if f.k.unstableTotal() != 0 {
		t.Fatalf("unstable index survived the vacuous pass boundary: %d entries",
			f.k.unstableTotal())
	}
	// The emptied scanner must idle cleanly.
	f.k.ScanChunk(64)
	if got := f.k.Stats(); got.PagesScanned != s.PagesScanned || got.FullScans != 2 {
		t.Fatalf("empty scanner did work: %+v", got)
	}
}

// TestDrainedIncrementalQueueReleasesBacking (satellite): consuming the round
// via incQueue[1:] pins every drained range — head included — in the backing
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
	if f.k.incQueue != nil {
		t.Fatalf("drained queue retains backing array (cap %d)", cap(f.k.incQueue))
	}
	// A partially drained round must keep its remainder.
	for i := uint64(0); i < 6; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(8000+i))
	}
	f.k.ScanChunk(3)
	if len(f.k.incQueue) == 0 {
		t.Fatal("partially drained round lost its remaining work")
	}
	f.k.ScanChunk(64)
	if f.k.incQueue != nil {
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

package ksm

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

// newDirtyFixture builds a fixture whose host carries per-VM dirty rings
// (ringPages 0 = default capacity).
func newDirtyFixture(t *testing.T, ramPages, nVMs, guestPages, ringPages int, cfg Config) *fixture {
	t.Helper()
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{
		Name:           "t",
		RAMBytes:       int64(ramPages) * pg,
		DirtyLog:       true,
		DirtyRingPages: ringPages,
	}, clock)
	f := &fixture{clock: clock, host: host}
	for i := 0; i < nVMs; i++ {
		f.vms = append(f.vms, host.NewVM(hypervisor.VMConfig{
			Name:          "vm",
			GuestMemBytes: int64(guestPages) * pg,
			Seed:          mem.Seed(i + 1),
		}))
	}
	f.k = New(host, cfg)
	f.k.RegisterAll()
	return f
}

func incrementalConfig() Config {
	cfg := DefaultConfig()
	cfg.IncrementalScan = true
	return cfg
}

// TestIncrementalSwitchAfterTwoPasses: the scanner stays linear for the
// first two completed passes, then flips to dirty-ring rescans.
func TestIncrementalSwitchAfterTwoPasses(t *testing.T) {
	f := newDirtyFixture(t, 512, 2, 32, 0, incrementalConfig())
	f.k.ScanChunk(64)
	if f.k.incremental {
		t.Fatal("switched to incremental after one pass")
	}
	f.k.ScanChunk(64)
	if !f.k.incremental {
		t.Fatal("not incremental after two completed passes")
	}
	if f.k.stats.FullScans != 2 {
		t.Fatalf("FullScans = %d, want 2", f.k.stats.FullScans)
	}
}

// TestIncrementalScansOnlyDirtiedPages is the tentpole contract: once
// converged, an idle cluster costs nothing to rescan and a dirtied page
// costs exactly its revisits, not a pass over all registered pages.
func TestIncrementalScansOnlyDirtiedPages(t *testing.T) {
	f := newDirtyFixture(t, 1024, 2, 64, 0, incrementalConfig())
	for i := uint64(0); i < 8; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(1000+i))
		f.vms[1].FillGuestPage(i, mem.Seed(1000+i))
	}
	f.k.ScanChunk(128) // pass 1: first sightings
	f.k.ScanChunk(128) // pass 2: merges happen, mode switches
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	if s := f.k.Stats(); s.PagesShared != 8 {
		t.Fatalf("PagesShared = %d before churn, want 8", s.PagesShared)
	}

	// Idle round: nothing dirtied since the rings were reset, so the chunk
	// must scan nothing and charge nothing.
	before := f.k.Stats()
	f.k.ScanChunk(128)
	after := f.k.Stats()
	if after.PagesScanned != before.PagesScanned {
		t.Fatalf("idle incremental round scanned %d pages",
			after.PagesScanned-before.PagesScanned)
	}
	if after.CPUBusy != before.CPUBusy {
		t.Fatal("idle incremental round charged CPU")
	}

	// Dirty 4 private pages; the next round must rescan exactly those
	// (volatility-gate first sighting), and the round after revisits the
	// deferred 4 — never the other 120 registered pages. DirtyDrained is
	// compared as a delta: the full passes' ring resets count as drains too.
	for i := uint64(40); i < 44; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(7000+i))
	}
	before = f.k.Stats()
	f.k.ScanChunk(128)
	mid := f.k.Stats()
	if got := mid.PagesScanned - before.PagesScanned; got != 4 {
		t.Fatalf("dirty round scanned %d pages, want 4", got)
	}
	f.k.ScanChunk(128)
	after = f.k.Stats()
	if got := after.PagesScanned - mid.PagesScanned; got != 4 {
		t.Fatalf("revisit round scanned %d pages, want 4", got)
	}
	if got := after.DirtyDrained - before.DirtyDrained; got != 4 {
		t.Fatalf("DirtyDrained delta = %d, want 4", got)
	}
	if after.RingOverflows != 0 {
		t.Fatalf("RingOverflows = %d, want 0", after.RingOverflows)
	}
	if after.IncrementalScanned != 8 {
		t.Fatalf("IncrementalScanned = %d, want 8", after.IncrementalScanned)
	}
}

// TestIncrementalMatchesFullSharing: the same workload converges to the same
// sharing whether scanned linearly or via dirty rings — churn after
// convergence included.
func TestIncrementalMatchesFullSharing(t *testing.T) {
	run := func(cfg Config, dirtyLog bool) Stats {
		var f *fixture
		if dirtyLog {
			f = newDirtyFixture(t, 1024, 3, 32, 0, cfg)
		} else {
			f = newFixture(t, 1024, 3, 32, cfg)
		}
		for i := uint64(0); i < 8; i++ {
			for _, vm := range f.vms {
				vm.FillGuestPage(i, mem.Seed(500+i))
			}
		}
		f.scanPasses(3)
		// Churn after convergence: break two shared pages in VM0 and create
		// a fresh duplicate pair on a previously private page. Drive the
		// post-churn scanning as separate wake-ups: one ScanChunk is one
		// linear pass here (96 pages) and exactly one incremental round.
		f.vms[0].FillGuestPage(2, mem.Seed(9001))
		f.vms[0].FillGuestPage(3, mem.Seed(9002))
		f.vms[1].FillGuestPage(20, mem.Seed(8000))
		f.vms[2].FillGuestPage(20, mem.Seed(8000))
		for i := 0; i < 4; i++ {
			f.k.ScanChunk(96)
		}
		return f.k.Stats()
	}
	full := run(DefaultConfig(), false)
	inc := run(incrementalConfig(), true)
	if full.PagesShared != inc.PagesShared || full.PagesSharing != inc.PagesSharing {
		t.Fatalf("sharing diverged: full %d/%d, incremental %d/%d",
			full.PagesShared, full.PagesSharing, inc.PagesShared, inc.PagesSharing)
	}
	if inc.IncrementalScanned == 0 {
		t.Fatal("incremental run never used the dirty-ring queue")
	}
}

// TestRingOverflowForcesFullRescan (satellite): dirtying more pages than the
// ring holds must not lose sharing — the overflow forces a conservative
// whole-VM rescan, so even the pages that fell out of the ring merge.
func TestRingOverflowForcesFullRescan(t *testing.T) {
	f := newDirtyFixture(t, 1024, 2, 64, 8, incrementalConfig())
	f.k.ScanChunk(128)
	f.k.ScanChunk(128)
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	// Dirty 16 pages (ring holds 8): pages 8..15 fall out of the log, and
	// exactly those duplicate VM1's content, so only a conservative full
	// rescan can find the merges.
	for i := uint64(0); i < 16; i++ {
		seed := mem.Seed(3000 + i)
		if i < 8 {
			seed = mem.Seed(4000 + i) // unique: stays unmerged
		} else {
			f.vms[1].FillGuestPage(i, mem.Seed(3000+i))
		}
		f.vms[0].FillGuestPage(i, seed)
	}
	// VM1's writes also dirtied its ring; both sides need the two-sighting
	// gate, so give the scanner several rounds.
	for i := 0; i < 4; i++ {
		f.k.ScanChunk(256)
	}
	s := f.k.Stats()
	if s.RingOverflows == 0 {
		t.Fatal("16 dirty pages in an 8-entry ring never overflowed")
	}
	if s.PagesShared != 8 {
		t.Fatalf("PagesShared = %d after overflow rescan, want 8", s.PagesShared)
	}
	if s.PagesSharing != 16 {
		t.Fatalf("PagesSharing = %d, want 16", s.PagesSharing)
	}
}

// TestRegisterDuringIncrementalForcesFullRescan: a VM that boots after the
// switch has no ring history, so its first round covers its whole region and
// its duplicates still merge against the retained unstable index.
func TestRegisterDuringIncrementalForcesFullRescan(t *testing.T) {
	f := newDirtyFixture(t, 1024, 2, 32, 0, incrementalConfig())
	for i := uint64(0); i < 8; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(600+i))
	}
	f.k.ScanChunk(64)
	f.k.ScanChunk(64)
	if !f.k.incremental {
		t.Fatal("not incremental after two passes")
	}
	vm3 := f.host.NewVM(hypervisor.VMConfig{
		Name:          "late",
		GuestMemBytes: 32 * pg,
		Seed:          mem.Seed(99),
	})
	for i := uint64(0); i < 8; i++ {
		vm3.FillGuestPage(i, mem.Seed(600+i))
	}
	f.k.Register(vm3)
	if !f.k.needFull[vm3] {
		t.Fatal("late VM not marked for a conservative full rescan")
	}
	for i := 0; i < 3; i++ {
		f.k.ScanChunk(128)
	}
	if s := f.k.Stats(); s.PagesShared != 8 {
		t.Fatalf("PagesShared = %d after late registration, want 8", s.PagesShared)
	}
}

// TestUnregisterLastRegionMidPassEndsPass is the pass-boundary regression
// (satellite): killing the guest the scan is currently inside, when it owns
// the last region, empties the pass in flight. Every surviving region was
// scanned, so that is the pass boundary: the unstable-index drop, the stale
// prunes and the FullScans count must happen there.
func TestUnregisterLastRegionMidPassEndsPass(t *testing.T) {
	f := newFixture(t, 512, 2, 16, DefaultConfig())
	// Distinct resident content everywhere, so second-sighting pages land in
	// the unstable index without merging.
	for i := uint64(0); i < 16; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(10+i))
		f.vms[1].FillGuestPage(i, mem.Seed(200+i))
	}
	f.k.ScanChunk(32) // pass 1: volatility-gate first sightings
	f.k.ScanChunk(20) // pass 2: VM0's 16 pages plus 4 of VM1
	if s := f.k.Stats(); s.FullScans != 1 || f.k.unstableN != 20 {
		t.Fatalf("mid-pass: FullScans = %d with %d unstable entries, want 1 and 20",
			s.FullScans, f.k.unstableN)
	}
	f.k.Unregister(f.vms[1])
	s := f.k.Stats()
	if s.FullScans != 2 {
		t.Fatalf("FullScans = %d after wrap-completing unregister, want 2", s.FullScans)
	}
	if f.k.unstableN != 0 || len(f.k.unstable) != 0 {
		t.Fatalf("unstable index survived the pass boundary: %d entries", f.k.unstableN)
	}
	// The next chunk starts a fresh pass over the surviving VM and must
	// complete it normally.
	f.k.ScanChunk(16)
	if s := f.k.Stats(); s.FullScans != 3 {
		t.Fatalf("FullScans = %d after one more pass, want 3", s.FullScans)
	}
}

// TestUnregisterBeforeCursorDoesNotEndPass: the complementary case — removing
// an already-scanned region while the scan sits in a later one neither fakes
// a pass boundary nor moves the scan: the pass ends where it would have.
func TestUnregisterBeforeCursorDoesNotEndPass(t *testing.T) {
	f := newFixture(t, 512, 3, 16, DefaultConfig())
	f.k.ScanChunk(36) // regions 0 and 1 done, 4 pages into region 2
	f.k.Unregister(f.vms[0])
	f.k.ScanChunk(11)
	if s := f.k.Stats(); s.FullScans != 0 {
		t.Fatalf("FullScans = %d one page before the pass end, want 0", s.FullScans)
	}
	f.k.ScanChunk(1)
	if s := f.k.Stats(); s.FullScans != 1 || s.PagesScanned != 48 {
		t.Fatalf("FullScans = %d after %d pages, want 1 after 48", s.FullScans, s.PagesScanned)
	}
}

// TestStallExcludedFromCPUWall (satellite): injected stalls deschedule the
// daemon, so the duty cycle must divide by the time it actually had the CPU.
func TestStallExcludedFromCPUWall(t *testing.T) {
	f := newFixture(t, 256, 1, 16, DefaultConfig())
	f.k.Start()
	f.clock.RunFor(1 * simclock.Second)
	f.k.Stall(2 * simclock.Second)
	f.k.Stall(1 * simclock.Second) // overlap: extends nothing, books nothing
	f.clock.RunFor(1 * simclock.Second)
	// Mid-stall: one of the two stalled seconds has elapsed.
	s := f.k.Stats()
	if want := 1 * simclock.Second; s.StalledTime != want {
		t.Fatalf("StalledTime mid-stall = %v, want %v", s.StalledTime, want)
	}
	if want := 1 * simclock.Second; s.CPUWall != want {
		t.Fatalf("CPUWall mid-stall = %v, want %v", s.CPUWall, want)
	}
	f.clock.RunFor(3 * simclock.Second)
	s = f.k.Stats()
	if want := 2 * simclock.Second; s.StalledTime != want {
		t.Fatalf("StalledTime = %v, want %v", s.StalledTime, want)
	}
	// 5 s on the clock, 2 s stalled: 3 s of schedulable wall time.
	if want := 3 * simclock.Second; s.CPUWall != want {
		t.Fatalf("CPUWall = %v, want %v", s.CPUWall, want)
	}
	if s.Stalls != 2 {
		t.Fatalf("Stalls = %d, want 2", s.Stalls)
	}
}

// TestPassLengthTracksRegistration (satellite): the pass in flight covers
// exactly the registered regions — Unregister drops a region from it,
// Register appends one, unregistering the last VM ends it — and an empty
// scanner scans nothing.
func TestPassLengthTracksRegistration(t *testing.T) {
	f := newFixture(t, 512, 3, 16, DefaultConfig())
	want := func(fullScans, scanned uint64) {
		t.Helper()
		if s := f.k.Stats(); s.FullScans != fullScans || s.PagesScanned != scanned {
			t.Fatalf("FullScans = %d after %d pages, want %d after %d",
				s.FullScans, s.PagesScanned, fullScans, scanned)
		}
	}
	f.k.Unregister(f.vms[1])
	f.k.ScanChunk(32)
	want(1, 32)
	f.k.Register(f.vms[1])
	f.k.ScanChunk(47)
	want(1, 79)
	f.k.ScanChunk(1)
	want(2, 80)
	f.k.Unregister(f.vms[0])
	f.k.Unregister(f.vms[1])
	f.k.Unregister(f.vms[2])
	want(3, 80)
	// Guard path: a chunk with nothing registered must scan nothing.
	f.k.ScanChunk(64)
	want(3, 80)
}

// TestWorkingSetEstimateFromDrains: ring drains feed the per-VM working-set
// EWMA that the balloon manager and the OOM policy consume.
func TestWorkingSetEstimateFromDrains(t *testing.T) {
	f := newDirtyFixture(t, 1024, 2, 64, 0, incrementalConfig())
	if _, ok := f.vms[0].WorkingSetPages(); ok {
		t.Fatal("working-set estimate exists before any drain")
	}
	f.k.ScanChunk(128)
	f.k.ScanChunk(128)
	// Rings were reset as the linear passes entered each VM, so estimates
	// exist already; dirty a known count and drain via one round.
	for i := uint64(0); i < 10; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(100+i))
	}
	f.k.ScanChunk(128)
	ws, ok := f.vms[0].WorkingSetPages()
	if !ok {
		t.Fatal("no working-set estimate after drains")
	}
	if ws <= 0 || ws > 64 {
		t.Fatalf("working-set estimate %d out of range (0, 64]", ws)
	}
	// An idle VM's estimate decays toward zero as empty drains accumulate.
	for i := 0; i < 8; i++ {
		f.k.ScanChunk(128)
	}
	cold, ok := f.vms[0].WorkingSetPages()
	if !ok || cold >= ws {
		t.Fatalf("estimate did not decay: %d -> %d", ws, cold)
	}
}

// TestIncrementalOffIsByteIdentical pins the compatibility contract: with
// IncrementalScan off, a cluster with dirty logging off behaves exactly as
// the seed scanner — same stats word for word over a churny schedule.
func TestIncrementalOffIsByteIdentical(t *testing.T) {
	run := func() Stats {
		f := newFixture(t, 1024, 3, 32, DefaultConfig())
		for i := uint64(0); i < 12; i++ {
			for vi, vm := range f.vms {
				vm.FillGuestPage(i, mem.Seed(uint64(vi%2)*1000+i))
			}
		}
		f.scanPasses(2)
		f.vms[0].FillGuestPage(3, mem.Seed(77))
		f.scanPasses(2)
		f.k.Unregister(f.vms[2])
		f.scanPasses(2)
		return f.k.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("linear scanner not deterministic:\n%+v\n%+v", a, b)
	}
}

package ksm

import (
	"testing"
	"testing/quick"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const pg = mem.DefaultPageSize

type fixture struct {
	clock *simclock.Clock
	host  *hypervisor.Host
	vms   []*hypervisor.VMProcess
	k     *KSM
}

func newFixture(t testing.TB, ramPages, nVMs, guestPages int, cfg Config) *fixture {
	t.Helper()
	return newPagedFixture(t, pg, ramPages, nVMs, guestPages, cfg)
}

// newPagedFixture is newFixture on a host with pages of pageSize bytes.
func newPagedFixture(t testing.TB, pageSize, ramPages, nVMs, guestPages int, cfg Config) *fixture {
	t.Helper()
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: int64(ramPages * pageSize), PageSize: pageSize}, clock)
	f := &fixture{clock: clock, host: host}
	for i := 0; i < nVMs; i++ {
		f.vms = append(f.vms, host.NewVM(hypervisor.VMConfig{
			Name:          "vm",
			GuestMemBytes: int64(guestPages * pageSize),
			Seed:          mem.Seed(i + 1),
		}))
	}
	f.k = New(host, cfg)
	f.k.RegisterAll()
	return f
}

// scanPasses runs enough chunks for at least n full passes.
func (f *fixture) scanPasses(n int) {
	pagesPerPass := 0
	for _, vm := range f.vms {
		pagesPerPass += vm.GuestPages()
	}
	f.k.ScanChunk(pagesPerPass*n + 1)
}

// TestIdenticalPagesMergeAcrossVMs runs on 4 KiB pages and on POWER's
// 64 KiB, which Fig. 6's 64 KiB counterfactual relies on.
func TestIdenticalPagesMergeAcrossVMs(t *testing.T) {
	for _, pageSize := range []int{pg, 64 << 10} {
		f := newPagedFixture(t, pageSize, 256, 2, 16, DefaultConfig())
		for i := uint64(0); i < 8; i++ {
			f.vms[0].FillGuestPage(i, mem.Seed(1000+i))
			f.vms[1].FillGuestPage(i, mem.Seed(1000+i))
		}
		f.scanPasses(3) // gate needs 2 visits; merges on the 3rd
		s := f.k.Stats()
		if s.PagesShared != 8 || s.PagesSharing != 16 {
			t.Fatalf("%d-byte pages: PagesShared = %d, PagesSharing = %d, want 8 and 16", pageSize, s.PagesShared, s.PagesSharing)
		}
		if want := int64(8 * pageSize); s.SavedBytes != want {
			t.Fatalf("%d-byte pages: SavedBytes = %d, want %d", pageSize, s.SavedBytes, want)
		}
		if err := f.k.Verify(); err != nil {
			t.Fatalf("%d-byte pages: %v", pageSize, err)
		}
	}
}

func TestDifferentContentNeverMerges(t *testing.T) {
	f := newFixture(t, 256, 2, 16, DefaultConfig())
	for i := uint64(0); i < 8; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(1+i))
		f.vms[1].FillGuestPage(i, mem.Seed(100+i))
	}
	f.scanPasses(4)
	if s := f.k.Stats(); s.PagesShared != 0 || s.SavedBytes != 0 {
		t.Fatalf("unexpected sharing: %+v", s)
	}
}

func TestZeroPagesMergeTogether(t *testing.T) {
	f := newFixture(t, 256, 3, 16, DefaultConfig())
	for _, vm := range f.vms {
		for i := uint64(0); i < 4; i++ {
			vm.TouchGuestPage(i, true) // demand-zero
		}
	}
	f.scanPasses(3)
	s := f.k.Stats()
	if s.PagesShared != 1 {
		t.Fatalf("PagesShared = %d, want 1 (one zero stable page)", s.PagesShared)
	}
	if s.PagesSharing != 12 {
		t.Fatalf("PagesSharing = %d, want 12", s.PagesSharing)
	}
}

func TestChecksumGateSkipsVolatilePages(t *testing.T) {
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	// Rewrite the pages between every pass: they never stabilize.
	for pass := 0; pass < 5; pass++ {
		for i := uint64(0); i < 4; i++ {
			f.vms[0].FillGuestPage(i, mem.Seed(uint64(pass)*10+i))
			f.vms[1].FillGuestPage(i, mem.Seed(uint64(pass)*10+i))
		}
		f.scanPasses(1)
	}
	s := f.k.Stats()
	if s.PagesShared != 0 {
		t.Fatalf("volatile pages merged: %+v", s)
	}
	if s.ChecksumSkips == 0 {
		t.Fatal("checksum gate never fired")
	}
}

func TestNoGateMergesVolatilePagesThenBreaks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChecksumGate = false
	f := newFixture(t, 256, 2, 8, cfg)
	f.vms[0].FillGuestPage(0, 7)
	f.vms[1].FillGuestPage(0, 7)
	f.scanPasses(2)
	if f.k.Stats().PagesShared != 1 {
		t.Fatalf("merge without gate failed: %+v", f.k.Stats())
	}
	// A write breaks the sharing.
	f.vms[1].WriteGuestPage(0, 0, []byte{9})
	s := f.k.Stats()
	if s.COWBreaks != 1 {
		t.Fatalf("COWBreaks = %d, want 1", s.COWBreaks)
	}
	if s.PagesSharing != 1 {
		t.Fatalf("PagesSharing after break = %d, want 1", s.PagesSharing)
	}
}

func TestRemergeAfterCOWBreak(t *testing.T) {
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	f.vms[0].FillGuestPage(0, 7)
	f.vms[1].FillGuestPage(0, 7)
	f.scanPasses(3)
	if f.k.Stats().PagesSharing != 2 {
		t.Fatalf("initial merge failed: %+v", f.k.Stats())
	}
	f.vms[1].WriteGuestPage(0, 0, []byte{9}) // diverge
	f.vms[1].FillGuestPage(0, 7)             // converge again
	f.scanPasses(3)
	s := f.k.Stats()
	if s.PagesSharing != 2 {
		t.Fatalf("re-merge failed: %+v", s)
	}
	if s.StableMerges == 0 {
		t.Fatal("re-merge should hit the stable tree")
	}
}

func TestStablePagePrunedWhenLastMapperLeaves(t *testing.T) {
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	f.vms[0].FillGuestPage(0, 7)
	f.vms[1].FillGuestPage(0, 7)
	f.scanPasses(3)
	if len(f.k.StableFrames()) != 1 {
		t.Fatalf("stable frames = %d, want 1", len(f.k.StableFrames()))
	}
	f.vms[0].ReleaseGuestPage(0)
	f.vms[1].ReleaseGuestPage(0)
	f.scanPasses(1)
	if got := len(f.k.StableFrames()); got != 0 {
		t.Fatalf("stable frames after release = %d, want 0", got)
	}
	if f.k.Stats().StalePruned == 0 {
		t.Fatal("prune counter did not advance")
	}
}

func TestMergedPageContentPreserved(t *testing.T) {
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	f.vms[0].FillGuestPage(3, 77)
	f.vms[1].FillGuestPage(3, 77)
	f.scanPasses(3)
	want := mem.FillBytes(pg, 77)
	for _, vm := range f.vms {
		got := vm.ReadGuestPage(3)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("content diverged after merge at byte %d", i)
			}
		}
	}
}

func TestScanScheduledOnClock(t *testing.T) {
	f := newFixture(t, 256, 2, 16, DefaultConfig())
	for i := uint64(0); i < 8; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(1000+i))
		f.vms[1].FillGuestPage(i, mem.Seed(1000+i))
	}
	f.k.Start()
	f.clock.RunFor(2 * simclock.Second) // 20 wakeups × 1000 pages ≫ 3 passes
	f.k.Stop()
	f.clock.RunFor(200 * simclock.Millisecond) // let the loop observe Stop
	s := f.k.Stats()
	if s.PagesShared != 8 {
		t.Fatalf("scheduled scan: PagesShared = %d, want 8", s.PagesShared)
	}
	if s.CPUPercent() <= 0 || s.CPUPercent() > 50 {
		t.Fatalf("CPUPercent = %f out of range", s.CPUPercent())
	}
}

func TestCPUDutyCycleMatchesPaper(t *testing.T) {
	// 10 000 pages per 100 ms at 2.5 µs/page ≈ 25 % CPU; 1 000 ≈ 2.5 %.
	cfg := DefaultConfig()
	cfg.PagesToScan = 10000
	f := newFixture(t, 64, 1, 16, cfg)
	f.k.Start()
	f.clock.RunFor(10 * simclock.Second)
	f.k.Stop()
	got := f.k.Stats().CPUPercent()
	if got < 20 || got > 30 {
		t.Fatalf("warm-up duty cycle = %.1f%%, want ≈25%%", got)
	}
}

func TestSetPagesToScan(t *testing.T) {
	f := newFixture(t, 64, 1, 16, DefaultConfig())
	f.k.SetPagesToScan(10)
	if f.k.Config().PagesToScan != 10 {
		t.Fatal("SetPagesToScan did not apply")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPagesToScan(0) did not panic")
		}
	}()
	f.k.SetPagesToScan(0)
}

// Property: after scanning, for every group of pages that share a seed, the
// saved bytes equal (mappers-1) pages per group, and all content survives.
func TestPropertyMergeSavingsExact(t *testing.T) {
	f := func(groupSizes []uint8) bool {
		nGroups := len(groupSizes)
		if nGroups == 0 {
			return true
		}
		if nGroups > 6 {
			groupSizes = groupSizes[:6]
			nGroups = 6
		}
		clock := simclock.New()
		host := hypervisor.NewHost(hypervisor.Config{Name: "p", RAMBytes: 2048 * pg}, clock)
		vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 256 * pg, Seed: 5})
		k := New(host, DefaultConfig())
		k.RegisterAll()

		gpfn := uint64(0)
		wantSavedPages := 0
		for g, szRaw := range groupSizes {
			sz := int(szRaw%5) + 1
			for i := 0; i < sz; i++ {
				vm.FillGuestPage(gpfn, mem.Seed(9000+g))
				gpfn++
			}
			if sz > 1 {
				wantSavedPages += sz - 1
			}
		}
		k.ScanChunk(256 * 4)
		s := k.Stats()
		return s.SavedBytes == int64(wantSavedPages)*pg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmergeRestoresPrivateCopies(t *testing.T) {
	f := newFixture(t, 512, 3, 16, DefaultConfig())
	for i := uint64(0); i < 8; i++ {
		for _, vm := range f.vms {
			vm.FillGuestPage(i, mem.Seed(500+i))
		}
	}
	f.scanPasses(3)
	if f.k.Stats().PagesShared != 8 {
		t.Fatalf("setup: shared = %d", f.k.Stats().PagesShared)
	}
	framesBefore := f.host.Phys().FramesInUse()
	f.k.Unmerge()
	s := f.k.Stats()
	if s.PagesShared != 0 || s.PagesSharing != 0 {
		t.Fatalf("sharing survives unmerge: %+v", s)
	}
	// 3 VMs × 8 pages need 24 private frames where 8 stable ones sufficed.
	framesAfter := f.host.Phys().FramesInUse()
	if framesBefore != 8 || framesAfter != 24 {
		t.Fatalf("frames %d -> %d, want 8 -> 24", framesBefore, framesAfter)
	}
	// Content preserved in every private copy.
	want := mem.FillBytes(pg, 503)
	for _, vm := range f.vms {
		got := vm.ReadGuestPage(3)
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("content corrupted by unmerge")
			}
		}
	}
	// Re-scanning merges everything again.
	f.scanPasses(3)
	if f.k.Stats().PagesShared != 8 {
		t.Fatalf("re-merge failed: %+v", f.k.Stats())
	}
}

func TestEmptyRegionNeverScanned(t *testing.T) {
	// Regression: with an empty registered region (Start == End) the scanner
	// used to clamp to Start and scan reg.End itself — a page KSM was never
	// madvised about. A pass built from an empty-only scan list scans nothing
	// and completes nothing.
	f := newFixture(t, 256, 1, 16, DefaultConfig())
	base := f.vms[0].MergeableRegions()[0]
	k := New(f.host, DefaultConfig())
	k.regions = []hypervisor.MergeableRegion{{VM: f.vms[0], Start: base.Start, End: base.Start}}
	k.ScanChunk(64)
	s := k.Stats()
	if s.PagesScanned != 0 || s.NotResident != 0 || s.FullScans != 0 {
		t.Fatalf("empty region was scanned: %+v", s)
	}
}

func TestEmptyRegionSkippedBetweenRegions(t *testing.T) {
	// An empty region between two populated ones is stepped over without
	// scanning out-of-range pages, and passes still complete.
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	base := f.vms[0].MergeableRegions()[0]
	empty := hypervisor.MergeableRegion{VM: f.vms[0], Start: base.End, End: base.End}
	f.k.regions = []hypervisor.MergeableRegion{
		f.vms[0].MergeableRegions()[0], empty, f.vms[1].MergeableRegions()[0],
	}
	f.vms[0].FillGuestPage(0, 7)
	f.vms[1].FillGuestPage(0, 7)
	f.scanPasses(3)
	s := f.k.Stats()
	if s.PagesShared != 1 {
		t.Fatalf("merge across empty region failed: %+v", s)
	}
	// Each pass covers exactly the 16 real pages; the empty region adds
	// none, so scanning 49 pages completes 3 full passes.
	if s.FullScans != 3 {
		t.Fatalf("FullScans = %d, want 3", s.FullScans)
	}
}

func TestRegisterIsIdempotent(t *testing.T) {
	// Register followed by RegisterAll (or a repeated Register) must not
	// double-scan a VM.
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	f.k.Register(f.vms[0])
	f.k.RegisterAll()
	if got := len(f.k.regions); got != 2 {
		t.Fatalf("regions = %d, want 2 (one per VM)", got)
	}
	f.vms[0].FillGuestPage(0, 7)
	f.vms[1].FillGuestPage(0, 7)
	// One pass is 16 pages; a duplicated region would stretch it to 24.
	f.k.ScanChunk(16)
	if s := f.k.Stats(); s.FullScans != 1 {
		t.Fatalf("FullScans = %d after one nominal pass, want 1", s.FullScans)
	}
}

func TestChecksumMapPrunedOnSwapChurn(t *testing.T) {
	// The volatility gate's seen set must stay proportional to the resident
	// set, not grow with every page the scanner ever visited. Churn pages through
	// swap by touching a guest twice the host's size.
	clock := simclock.New()
	// 64 host frames; the guest demands 128 pages, so earlier pages are
	// evicted to swap as later ones fault in.
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: 64 * pg, SwapBytes: 512 * pg}, clock)
	vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 128 * pg, Seed: 1})
	k := New(host, DefaultConfig())
	k.RegisterAll()
	for round := 0; round < 4; round++ {
		for p := uint64(0); p < 128; p++ {
			vm.FillGuestPage(p, mem.Seed(1000+p))
		}
		k.ScanChunk(128) // one full pass
	}
	resident := 0
	for _, reg := range k.regions {
		for vpn := reg.Start; vpn < reg.End; vpn++ {
			if _, ok := vm.ResolveResident(vpn); ok {
				resident++
			}
		}
	}
	if got := len(gateEntries(k)); got == 0 || got > resident {
		t.Fatalf("gate holds %d entries for %d resident pages", got, resident)
	}
	// Unmapping everything and finishing a pass empties the gate.
	for p := uint64(0); p < 128; p++ {
		vm.ReleaseGuestPage(p)
	}
	k.ScanChunk(128)
	if got := len(gateEntries(k)); got != 0 {
		t.Fatalf("gate holds %d entries after all pages released", got)
	}
}

func TestChecksumEntriesForMergedPagesPruned(t *testing.T) {
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	for i := uint64(0); i < 4; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(50+i))
		f.vms[1].FillGuestPage(i, mem.Seed(50+i))
	}
	// A private page beside them, so the gate is provably not just empty.
	f.vms[0].FillGuestPage(5, mem.Seed(99))
	f.scanPasses(4)
	if f.k.Stats().PagesShared != 4 {
		t.Fatalf("setup: %+v", f.k.Stats())
	}
	// All eight mapped pages point at stable frames now; their gate entries
	// are dead weight and must have been pruned at the end of the pass.
	entries := gateEntries(f.k)
	if len(entries) == 0 {
		t.Fatal("gate holds nothing, not even the private page: the check below would pass vacuously")
	}
	for _, key := range entries {
		frame, ok := key.vm.ResolveResident(key.vpn)
		if ok && f.host.Phys().IsKSM(frame) {
			t.Fatalf("gate entry survives for merged page %v", key.vpn)
		}
	}
}

package thp

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

// TestFHPMDemotesAndReabsorbs drives the full promote/demote cycle on a run
// with collapse-time zero-fill bloat. Without a dirty log every subpage reads
// as cold, so once the block ages past fhpmMinAge the daemon carves the
// zero-content subpages; with nothing keeping them carved (no KSM to merge
// them), fhpmQuietPromote quiet visits later it re-absorbs the block.
func TestFHPMDemotesAndReabsorbs(t *testing.T) {
	clock, h := newHost(t, 4)
	vm := h.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: int64(hp) * pg, Seed: 1})
	for i := uint64(0); i < hp; i++ {
		if i%50 == 10 {
			continue // leave holes for collapse to zero-fill
		}
		vm.FillGuestPage(i, mem.Seed(1000+i))
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyFHPM
	d := New(h, cfg)
	d.Register(vm)
	d.Start()
	clock.RunFor(2 * simclock.Second)

	s := d.Stats()
	if s.Collapses == 0 {
		t.Fatal("fhpm never collapsed the dense run")
	}
	if s.Demotions == 0 {
		t.Fatal("fhpm never demoted the cold zero-filled subpages")
	}
	if s.PartialSplits < s.Demotions {
		t.Fatalf("partial splits %d < demotions %d", s.PartialSplits, s.Demotions)
	}
	if s.Reabsorbs == 0 {
		t.Fatal("fhpm never re-absorbed the quiesced block")
	}
	if vm.HugeMappings() != 1 {
		t.Fatalf("huge mappings %d, want 1", vm.HugeMappings())
	}
	if err := h.CheckLeaks(nil); err != nil {
		t.Fatalf("leaks after fhpm cycling: %v", err)
	}
}

// TestFHPMHeatProtectsHotSubpages keeps one zero subpage hot through the
// dirty ring while an equally zero neighbour stays cold: only the cold one
// may be demoted, and the run must stay huge throughout.
func TestFHPMHeatProtectsHotSubpages(t *testing.T) {
	clock := simclock.New()
	h := hypervisor.NewHost(hypervisor.Config{
		Name: "t", RAMBytes: 4 * hp * pg, DirtyLog: true,
	}, clock)
	vm := h.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: int64(hp) * pg, Seed: 1})
	for i := uint64(0); i < hp; i++ {
		vm.FillGuestPage(i, mem.Seed(1000+i))
	}
	vm.ZeroGuestPage(50) // hot zero page
	vm.ZeroGuestPage(51) // cold zero page
	if got := vm.CollapseHuge(vm.MemslotBase(), 0); got != hypervisor.CollapseOK {
		t.Fatalf("setup collapse: %v", got)
	}
	vm.DrainDirtyLog() // discard the fill backlog

	cfg := DefaultConfig()
	cfg.Policy = PolicyFHPM
	cfg.ScanPages = hp // exactly one visit per wake
	d := New(h, cfg)
	d.Register(vm)
	d.Start()

	// Re-dirty page 50 between daemon visits so its ring-fed heat never
	// decays to zero, while page 51 goes cold.
	for i := 0; i < 6; i++ {
		vm.ZeroGuestPage(50)
		vm.DrainDirtyLog()
		clock.RunFor(sleepMillis * simclock.Millisecond)
	}

	pt := vm.HostPageTable()
	head := vm.MemslotBase()
	if !pt.CarvedAt(head + 51) {
		t.Fatal("cold zero subpage never demoted")
	}
	if pt.CarvedAt(head + 50) {
		t.Fatal("hot subpage demoted despite dirty-ring heat")
	}
	if vm.HugeMappings() != 1 {
		t.Fatal("run lost its huge mapping")
	}
	if d.Stats().Demotions == 0 {
		t.Fatal("no demotions recorded")
	}
}

// TestFHPMRespectsMinAge verifies the demotion gate: a freshly collapsed
// block may not be carved before fhpmMinAge daemon visits, giving the guest
// time to touch pages the collapse zero-filled.
func TestFHPMRespectsMinAge(t *testing.T) {
	clock, h := newHost(t, 4)
	vm := h.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: int64(hp) * pg, Seed: 1})
	for i := uint64(0); i < hp; i++ {
		if i == 10 {
			continue
		}
		vm.FillGuestPage(i, mem.Seed(1000+i))
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyFHPM
	cfg.ScanPages = hp // one visit per wake
	d := New(h, cfg)
	d.Register(vm)
	d.Start()

	// Visit 1 collapses; visits 2..fhpmMinAge only age the block.
	for i := 0; i < fhpmMinAge; i++ {
		clock.RunFor(sleepMillis * simclock.Millisecond)
	}
	if got := d.Stats().Demotions; got != 0 {
		t.Fatalf("demoted %d subpages before min age", got)
	}
	clock.RunFor(sleepMillis * simclock.Millisecond)
	if d.Stats().Demotions == 0 {
		t.Fatal("no demotion once the block aged past the gate")
	}
	if !vm.HostPageTable().CarvedAt(vm.MemslotBase() + 10) {
		t.Fatal("the zero-filled hole was not the page demoted")
	}
}

// TestFHPMFallsBackToCollapseOnBasePages checks the state machine's entry
// edge: a run that is not huge yet gets the ordinary collapse treatment.
func TestFHPMFallsBackToCollapseOnBasePages(t *testing.T) {
	clock, h := newHost(t, 4)
	vm := denseVM(t, h, 2)
	cfg := DefaultConfig()
	cfg.Policy = PolicyFHPM
	d := New(h, cfg)
	d.Register(vm)
	d.Start()
	clock.RunFor(simclock.Second)
	if vm.HugeMappings() != 2 {
		t.Fatalf("huge mappings %d, want 2", vm.HugeMappings())
	}
	if d.Stats().Collapses != 2 {
		t.Fatalf("collapses %d, want 2", d.Stats().Collapses)
	}
}

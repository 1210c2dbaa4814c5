package ksm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

func TestPartialSplitCarvesOnlyDuplicateSubpages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HugeSplit = SplitSubpage
	f := hugeFixture(t, cfg)
	f.scanPasses(5)
	s := f.k.Stats()
	if s.HugeSplits != 0 {
		t.Fatalf("partial mode dissolved %d whole blocks", s.HugeSplits)
	}
	if s.HugePartialSplits == 0 {
		t.Fatal("partial mode never carved")
	}
	// Every duplicate subpage except the uncarvable heads merges: the head
	// subpage of each run is skipped, the rest carve out and share.
	if s.PagesShared != hp-1 || s.PagesSharing != 2*(hp-1) {
		t.Fatalf("sharing: shared=%d sharing=%d, want %d/%d",
			s.PagesShared, s.PagesSharing, hp-1, 2*(hp-1))
	}
	if s.HugeSkips == 0 {
		t.Fatal("head subpages not counted as skips")
	}
	for _, vm := range f.vms {
		if vm.HugeMappings() != 1 {
			t.Fatal("huge mapping lost in partial mode")
		}
		if got := vm.HostPageTable().CarvedCount(vm.MemslotBase()); got != hp-1 {
			t.Fatalf("carved %d subpages, want %d", got, hp-1)
		}
		// Merged content intact, carved and head subpages alike.
		for _, i := range []uint64{0, 17, hp - 1} {
			want := mem.FillBytes(pg, mem.Seed(4000+i))
			if !bytes.Equal(vm.ReadGuestPage(i), want) {
				t.Fatalf("content of page %d lost across carve+merge", i)
			}
		}
	}
	if err := f.host.CheckLeaks(f.k.StableFrames()); err != nil {
		t.Fatalf("leaks after partial-split merging: %v", err)
	}
}

func TestPartialSplitLeavesUniqueHugePagesAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HugeSplit = SplitSubpage
	f := newFixture(t, 6*hp, 2, 2*hp, cfg)
	for vi, vm := range f.vms {
		for i := uint64(0); i < hp; i++ {
			vm.FillGuestPage(i, mem.Combine(mem.Seed(vi+1), mem.Seed(i)))
		}
		if got := vm.CollapseHuge(vm.MemslotBase(), 0); got.String() != "ok" {
			t.Fatalf("setup collapse: %v", got)
		}
	}
	f.scanPasses(5)
	s := f.k.Stats()
	if s.HugePartialSplits != 0 {
		t.Fatalf("carved %d subpages of unique runs", s.HugePartialSplits)
	}
	for _, vm := range f.vms {
		if vm.HugeMappings() != 1 || vm.HostPageTable().CarvedCount(vm.MemslotBase()) != 0 {
			t.Fatal("unique huge mapping disturbed")
		}
	}
}

func TestPartialSplitCarvesHugeSideToMeetBasePages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HugeSplit = SplitSubpage
	f := newFixture(t, 6*hp, 2, 2*hp, cfg)
	// Same content in both VMs, but only VM 2's run is collapsed: the
	// partner-huge path must carve VM 2's subpages one at a time.
	for _, vm := range f.vms {
		for i := uint64(0); i < hp; i++ {
			vm.FillGuestPage(i, mem.Seed(4000+i))
		}
	}
	if got := f.vms[1].CollapseHuge(f.vms[1].MemslotBase(), 0); got.String() != "ok" {
		t.Fatalf("setup collapse: %v", got)
	}
	f.scanPasses(5)
	s := f.k.Stats()
	if s.HugeSplits != 0 {
		t.Fatal("whole split ran in partial mode")
	}
	if s.HugePartialSplits == 0 {
		t.Fatal("huge side never carved to meet its base-page duplicate")
	}
	if f.vms[1].HugeMappings() != 1 {
		t.Fatal("huge mapping lost")
	}
	if s.PagesShared != hp-1 || s.PagesSharing != 2*(hp-1) {
		t.Fatalf("sharing: shared=%d sharing=%d, want %d/%d",
			s.PagesShared, s.PagesSharing, hp-1, 2*(hp-1))
	}
}

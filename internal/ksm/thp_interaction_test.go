package ksm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

const hp = mem.HugePages

// hugeFixture builds two VMs whose first aligned run holds identical
// content, collapsed into a huge mapping on each side.
func hugeFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	f := newFixture(t, 6*hp, 2, 2*hp, cfg)
	for _, vm := range f.vms {
		for i := uint64(0); i < hp; i++ {
			vm.FillGuestPage(i, mem.Seed(4000+i))
		}
		if got := vm.CollapseHuge(vm.MemslotBase(), 0); got.String() != "ok" {
			t.Fatalf("setup collapse: %v", got)
		}
	}
	return f
}

func TestKSMSkipsHugePagesByDefault(t *testing.T) {
	f := hugeFixture(t, DefaultConfig())
	f.scanPasses(4)
	s := f.k.Stats()
	if s.PagesShared != 0 || s.PagesSharing != 0 {
		t.Fatalf("KSM merged inside huge mappings: shared=%d sharing=%d", s.PagesShared, s.PagesSharing)
	}
	if s.HugeSkips == 0 {
		t.Fatal("no huge skips counted")
	}
	if s.HugeSplits != 0 {
		t.Fatalf("splits in skip mode: %d", s.HugeSplits)
	}
	for _, vm := range f.vms {
		if vm.HugeMappings() != 1 {
			t.Fatal("huge mapping broken in skip mode")
		}
	}
}

func TestKSMSplitModeRecoversSharing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HugeSplit = SplitWhole
	f := hugeFixture(t, cfg)
	f.scanPasses(5)
	s := f.k.Stats()
	if s.HugeSplits == 0 {
		t.Fatal("split mode never split")
	}
	if s.PagesShared != hp || s.PagesSharing != 2*hp {
		t.Fatalf("sharing after splits: shared=%d sharing=%d, want %d/%d",
			s.PagesShared, s.PagesSharing, hp, 2*hp)
	}
	for _, vm := range f.vms {
		if vm.HugeMappings() != 0 {
			t.Fatal("huge mapping survived split mode over duplicates")
		}
	}
	// Merged content intact on both sides.
	for _, vm := range f.vms {
		for _, i := range []uint64{0, 17, hp - 1} {
			want := mem.FillBytes(pg, mem.Seed(4000+i))
			if !bytes.Equal(vm.ReadGuestPage(i), want) {
				t.Fatalf("content of page %d lost across split+merge", i)
			}
		}
	}
}

func TestKSMSplitModeLeavesUniqueHugePagesAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HugeSplit = SplitWhole
	// Two VMs with *different* content in their collapsed runs: nothing to
	// merge, so nothing may be split.
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
	if s.HugeSplits != 0 {
		t.Fatalf("split %d unique huge pages", s.HugeSplits)
	}
	for _, vm := range f.vms {
		if vm.HugeMappings() != 1 {
			t.Fatal("unique huge mapping lost")
		}
	}
}

func TestKSMSplitsHugeSideToMergeWithBasePages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HugeSplit = SplitWhole
	f := newFixture(t, 6*hp, 2, 2*hp, cfg)
	// Same content in both VMs, but only VM 2's run is collapsed.
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
	if s.HugeSplits == 0 {
		t.Fatal("huge side never split to meet its base-page duplicate")
	}
	if s.PagesShared != hp || s.PagesSharing != 2*hp {
		t.Fatalf("sharing: shared=%d sharing=%d, want %d/%d",
			s.PagesShared, s.PagesSharing, hp, 2*hp)
	}
}

// TestDuplicatePairInsideOneHugeMapping: candidate and partner are subpages
// of the same huge mapping. Splitting the candidate's block whole makes the
// partner a base page before its own split is due, so the partner's PTE must
// be read again after the candidate's split.
func TestDuplicatePairInsideOneHugeMapping(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"whole":   func(c *Config) { c.HugeSplit = SplitWhole },
		"partial": func(c *Config) { c.HugeSplit = SplitSubpage },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			set(&cfg)
			f := newFixture(t, 6*hp, 1, 2*hp, cfg)
			vm := f.vms[0]
			for i := uint64(0); i < hp; i++ {
				vm.FillGuestPage(i, mem.Seed(4000+i))
			}
			vm.FillGuestPage(9, mem.Seed(4000+5))
			if got := vm.CollapseHuge(vm.MemslotBase(), 0); got.String() != "ok" {
				t.Fatalf("setup collapse: %v", got)
			}
			f.scanPasses(5)
			s := f.k.Stats()
			if s.PagesShared != 1 || s.PagesSharing != 2 {
				t.Fatalf("sharing: shared=%d sharing=%d, want 1/2", s.PagesShared, s.PagesSharing)
			}
		})
	}
}

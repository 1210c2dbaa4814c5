package ksm

import (
	"testing"

	"repro/internal/mem"
)

// Cross-cutting invariants of the sharing machinery, checked after randomized
// workloads of fills, merges and COW breaks.

// checkInvariants asserts the structural invariants that must hold at any
// quiescent point:
//  1. every stable-tree frame is flagged KSM and alive;
//  2. every PTE pointing at a stable frame is write-protected (COW);
//  3. frame reference counts equal 1 (tree) + number of mapping PTEs;
//  4. no two stable frames have identical content.
func (f *fixture) checkInvariants(t *testing.T) {
	t.Helper()
	pm := f.host.Phys()
	stable := f.k.StableFrames()

	mappers := map[mem.FrameID]int{}
	for _, vm := range f.vms {
		vm.HostPageTable().Range(func(vpn mem.VPN, pte mem.PTE) bool {
			if pte.Swapped {
				return true
			}
			if pm.IsKSM(pte.Frame) {
				if !pte.COW {
					t.Errorf("PTE %#x maps stable frame %d without COW", vpn, pte.Frame)
				}
				mappers[pte.Frame]++
			}
			return true
		})
	}
	for i, fr := range stable {
		if !pm.IsKSM(fr) {
			t.Errorf("stable frame %d not flagged KSM", fr)
		}
		if got, want := pm.RefCount(fr), mappers[fr]+1; got != want {
			t.Errorf("stable frame %d refcount %d, want %d (tree + %d mappers)", fr, got, want, mappers[fr])
		}
		for _, other := range stable[i+1:] {
			if pm.Equal(fr, other) {
				t.Errorf("stable frames %d and %d have identical content", fr, other)
			}
		}
	}
}

func TestInvariantsAfterRandomizedChurn(t *testing.T) {
	f := newFixture(t, 1024, 3, 64, DefaultConfig())
	rng := mem.Seed(7)
	for round := 0; round < 12; round++ {
		for vi, vm := range f.vms {
			for p := 0; p < 24; p++ {
				rng = mem.Mix(rng)
				gpfn := uint64(rng) % 64
				switch uint64(rng) % 5 {
				case 0, 1:
					// Convergent content (same across VMs).
					vm.FillGuestPage(gpfn, mem.Seed(1000+gpfn%10))
				case 2:
					// Divergent content.
					vm.FillGuestPage(gpfn, mem.Combine(mem.Seed(vi), rng))
				case 3:
					vm.ZeroGuestPage(gpfn)
				case 4:
					vm.WriteGuestPage(gpfn, int(uint64(rng)%4000), []byte{byte(rng)})
				}
			}
		}
		f.scanPasses(1)
		f.checkInvariants(t)
		if t.Failed() {
			t.Fatalf("invariants broken at round %d", round)
		}
	}
	// Frame accounting closes: every allocated frame is reachable from a
	// PTE or the stable tree.
	pm := f.host.Phys()
	if pm.FramesInUse()+pm.FreeFrames() != pm.TotalFrames() {
		t.Fatal("frame pool accounting broken")
	}
}

func TestSavedBytesNeverNegative(t *testing.T) {
	f := newFixture(t, 512, 2, 32, DefaultConfig())
	for i := uint64(0); i < 16; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(i%4))
		f.vms[1].FillGuestPage(i, mem.Seed(i%4))
	}
	f.scanPasses(3)
	s := f.k.Stats()
	if s.SavedBytes < 0 {
		t.Fatalf("negative savings: %+v", s)
	}
	if s.PagesSharing < s.PagesShared {
		t.Fatalf("sharing %d < shared %d", s.PagesSharing, s.PagesShared)
	}
}

// recountStats rebuilds PagesShared/PagesSharing/SavedBytes from first
// principles: walk every VM page table, count mappings of KSM-flagged frames,
// and derive the totals — no scanner state consulted beyond the stable list.
func (f *fixture) recountStats() (shared, sharing int, saved int64) {
	pm := f.host.Phys()
	mappers := map[mem.FrameID]int{}
	for _, vm := range f.host.VMs() {
		vm.HostPageTable().Range(func(_ mem.VPN, pte mem.PTE) bool {
			if !pte.Swapped && !pte.Huge && pm.IsKSM(pte.Frame) {
				mappers[pte.Frame]++
			}
			return true
		})
	}
	for _, fr := range f.k.StableFrames() {
		if n := mappers[fr]; n > 0 {
			shared++
			sharing += n
		}
	}
	saved = int64(sharing-shared) * pg
	return shared, sharing, saved
}

func TestStatsMatchBruteForceRecount(t *testing.T) {
	// Stats() derives the sysfs totals from stable-tree refcounts; this
	// cross-checks them against a full page-table recount after merge churn,
	// COW breaks, guest kills and scanner unregisters — once on the inline
	// schedule and once with every batch fanned out over four shards, so
	// apply is held to the recount on both.
	t.Run("inline", func(t *testing.T) { statsMatchRecount(t, DefaultConfig()) })
	t.Run("fanned", func(t *testing.T) {
		forceParallel(t)
		cfg := DefaultConfig()
		cfg.Shards = 4
		statsMatchRecount(t, cfg)
	})
}

func statsMatchRecount(t *testing.T, cfg Config) {
	f := newFixture(t, 2048, 4, 48, cfg)
	rng := mem.Seed(11)
	check := func(stage string) {
		t.Helper()
		st := f.k.Stats()
		shared, sharing, saved := f.recountStats()
		if st.PagesShared != shared || st.PagesSharing != sharing || st.SavedBytes != saved {
			t.Fatalf("%s: Stats (shared %d sharing %d saved %d) != recount (shared %d sharing %d saved %d)",
				stage, st.PagesShared, st.PagesSharing, st.SavedBytes, shared, sharing, saved)
		}
	}
	for round := 0; round < 6; round++ {
		for vi, vm := range f.vms {
			for p := 0; p < 16; p++ {
				rng = mem.Mix(rng)
				gpfn := uint64(rng) % 48
				switch uint64(rng) % 4 {
				case 0, 1:
					vm.FillGuestPage(gpfn, mem.Seed(500+gpfn%8))
				case 2:
					vm.FillGuestPage(gpfn, mem.Combine(mem.Seed(vi), rng))
				case 3:
					vm.WriteGuestPage(gpfn, int(uint64(rng)%4000), []byte{byte(rng)})
				}
			}
		}
		f.scanPasses(1)
		check("churn")
	}
	// Kill one guest mid-flight: its mappings drop, the recount and the
	// refcount-derived totals must agree immediately and after the prune.
	f.k.Unregister(f.vms[3])
	f.host.KillVM(f.vms[3])
	f.vms = f.vms[:3]
	check("after kill")
	f.scanPasses(2)
	check("after prune")
	if err := f.host.CheckLeaks(f.k.StableFrames()); err != nil {
		t.Fatalf("leak check: %v", err)
	}
}

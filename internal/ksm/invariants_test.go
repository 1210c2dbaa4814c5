package ksm

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

// Cross-cutting invariants of the sharing machinery, checked by Verify after
// randomized workloads of fills, merges and COW breaks.

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
		if err := f.k.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
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

// TestStatsMatchBruteForceRecount: Stats() derives the sysfs totals from
// stable-index refcounts; Verify cross-checks them against a full page-table
// recount after merge churn, COW breaks, guest kills and scanner unregisters,
// on the inline schedule (the only one the scanner has).
func TestStatsMatchBruteForceRecount(t *testing.T) {
	t.Run("inline", statsMatchRecount)
}

func statsMatchRecount(t *testing.T) {
	f := newFixture(t, 2048, 4, 48, DefaultConfig())
	rng := mem.Seed(11)
	check := func(stage string) {
		t.Helper()
		if err := f.k.Verify(); err != nil {
			t.Fatalf("%s: %v", stage, err)
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

// TestVerifyCatchesBrokenLaws breaks each of Verify's laws by hand on a
// converged fixture, the way a scanner bug would leave it, and expects Verify
// to name the law.
func TestVerifyCatchesBrokenLaws(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(f *fixture, frame mem.FrameID)
	}{
		{"unflagged", "not flagged KSM", func(f *fixture, frame mem.FrameID) {
			// A stable frame released without leaving the index.
			f.host.Phys().SetKSM(frame, false)
		}},
		{"writable-mapper", "without COW", func(f *fixture, _ mem.FrameID) {
			// A partner promoted without being write-protected.
			vpn := f.vms[0].MemslotBase()
			pte, _ := f.vms[0].HostPageTable().Lookup(vpn)
			pte.COW = false
			f.vms[0].HostPageTable().Set(vpn, pte)
		}},
		{"refcount", "refcount", func(f *fixture, frame mem.FrameID) {
			f.host.Phys().IncRef(frame)
		}},
		{"duplicate", "same content", func(f *fixture, frame mem.FrameID) {
			pm := f.host.Phys()
			dup, err := pm.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			pm.FillFrame(dup, 1000)
			pm.SetKSM(dup, true)
			f.k.index.insertStable(pm, f.k.index.claim(pm.Checksum(dup)), dup)
		}},
		{"unstable-count", "unstable entries", func(f *fixture, _ mem.FrameID) {
			f.k.index.unstableN++
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, 256, 2, 16, DefaultConfig())
			for _, vm := range f.vms {
				vm.FillGuestPage(0, 1000)
			}
			f.scanPasses(3)
			if err := f.k.Verify(); err != nil {
				t.Fatalf("before: %v", err)
			}
			c.corrupt(f, f.k.StableFrames()[0])
			if err := f.k.Verify(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Verify = %v, want an error about %q", err, c.want)
			}
		})
	}
}

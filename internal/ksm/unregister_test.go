package ksm

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

func TestRegisterManyVMsNoDuplicates(t *testing.T) {
	// Registration must stay set-backed: the old linear duplicate scan made
	// this quadratic in the region count and a few hundred guests crawled.
	f := newFixture(t, 4096, 300, 2, DefaultConfig())
	// Re-registering everything must be a no-op...
	f.k.RegisterAll()
	for _, vm := range f.vms {
		f.k.Register(vm)
	}
	// ...which a single full pass proves: if any region were listed twice,
	// the fixture's pages-per-pass budget would cover only half a real pass.
	f.scanPasses(1)
	if got := f.k.Stats().FullScans; got != 1 {
		t.Fatalf("FullScans = %d after one pass budget, want 1 (duplicate regions?)", got)
	}
}

func TestUnregisterStopsScanningVM(t *testing.T) {
	f := newFixture(t, 512, 3, 16, DefaultConfig())
	f.scanPasses(1)
	before := f.k.Stats().PagesScanned
	f.k.Unregister(f.vms[2])
	f.k.ScanChunk(2*16 + 1) // two remaining VMs' pages = one full pass
	st := f.k.Stats()
	if st.FullScans != 2 {
		t.Fatalf("FullScans = %d, want 2 (pass length did not shrink)", st.FullScans)
	}
	if scanned := st.PagesScanned - before; scanned > 2*16+1 {
		t.Fatalf("scanned %d pages after unregister, want <= %d", scanned, 2*16+1)
	}
}

func TestUnregisterMidPassKeepsCursorSane(t *testing.T) {
	f := newFixture(t, 512, 3, 16, DefaultConfig())
	for i := uint64(0); i < 8; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(1000+i))
		f.vms[1].FillGuestPage(i, mem.Seed(1000+i))
		f.vms[2].FillGuestPage(i, mem.Seed(1000+i))
	}
	// Park the scan inside the second VM's region, then drop that VM both
	// ways: once as the current region, once as an earlier one.
	f.k.ScanChunk(16 + 4)
	f.k.Unregister(f.vms[1])
	f.host.KillVM(f.vms[1])
	f.k.ScanChunk(4) // the scan is now in vms[2]'s region
	f.k.Unregister(f.vms[0])
	f.host.KillVM(f.vms[0])
	f.vms = f.vms[2:]
	f.scanPasses(4)
	st := f.k.Stats()
	if st.FullScans == 0 {
		t.Fatal("scanner never completed a pass after mid-pass unregisters")
	}
	// Only vms[2] is left: nothing to share with, so the prune must have
	// collected every stable page and the host must balance exactly.
	if st.PagesShared != 0 {
		t.Fatalf("PagesShared = %d with a single VM left", st.PagesShared)
	}
	if err := f.host.CheckLeaks(f.k.StableFrames()); err != nil {
		t.Fatalf("leak check after unregister+kill: %v", err)
	}
	if err := f.k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUnregisterUnknownVMIsNoOp(t *testing.T) {
	f := newFixture(t, 512, 2, 16, DefaultConfig())
	other := f.host.NewVM(hypervisor.VMConfig{Name: "never-registered", GuestMemBytes: 16 * pg, Seed: 9})
	f.k.Unregister(other) // must not disturb the scan list
	f.scanPasses(1)
	if got := f.k.Stats().FullScans; got != 1 {
		t.Fatalf("FullScans = %d, want 1", got)
	}
}

func TestCPUWallZeroBeforeStart(t *testing.T) {
	f := newFixture(t, 512, 2, 16, DefaultConfig())
	// Scan synchronously without ever starting the daemon, with the clock
	// parked past zero: a never-started scanner has no wall time.
	f.clock.RunFor(5 * simclock.Second)
	f.scanPasses(2)
	st := f.k.Stats()
	if st.CPUWall != 0 {
		t.Fatalf("CPUWall = %v for a never-started scanner, want 0", st.CPUWall)
	}
	if st.CPUPercent() != 0 {
		t.Fatalf("CPUPercent = %v for a never-started scanner, want 0", st.CPUPercent())
	}
	f.k.Start()
	f.clock.RunFor(3 * simclock.Second)
	if st := f.k.Stats(); st.CPUWall != 3*simclock.Second {
		t.Fatalf("CPUWall = %v after 3s running, want 3s", st.CPUWall)
	}
}

func TestStallSuspendsScanning(t *testing.T) {
	f := newFixture(t, 512, 2, 16, DefaultConfig())
	f.k.Start()
	f.k.Stall(10 * simclock.Second)
	f.clock.RunFor(5 * simclock.Second)
	st := f.k.Stats()
	if st.PagesScanned != 0 {
		t.Fatalf("scanned %d pages while stalled", st.PagesScanned)
	}
	if st.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", st.Stalls)
	}
	// Overlapping stalls extend rather than stack: 5s in, another 2s stall
	// ends before the first one's deadline and must not shorten it.
	f.k.Stall(2 * simclock.Second)
	f.clock.RunFor(4 * simclock.Second)
	if st := f.k.Stats(); st.PagesScanned != 0 {
		t.Fatalf("scanned %d pages inside the extended stall window", st.PagesScanned)
	}
	f.clock.RunFor(5 * simclock.Second)
	if st := f.k.Stats(); st.PagesScanned == 0 {
		t.Fatal("scanner never resumed after the stall expired")
	}
}

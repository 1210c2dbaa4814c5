package thp

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const (
	pg = mem.DefaultPageSize
	hp = mem.HugePages
)

func newHost(t *testing.T, blocks int) (*simclock.Clock, *hypervisor.Host) {
	t.Helper()
	clock := simclock.New()
	return clock, hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: int64(blocks) * hp * pg}, clock)
}

func denseVM(t *testing.T, h *hypervisor.Host, runs int) *hypervisor.VMProcess {
	t.Helper()
	vm := h.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: int64(runs) * hp * pg, Seed: 1})
	for i := uint64(0); i < uint64(runs)*hp; i++ {
		vm.FillGuestPage(i, mem.Seed(1000+i))
	}
	return vm
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyNever, PolicyAlways, PolicyFHPM} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip of %v: %v, %v", p, got, err)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyNever {
		t.Fatalf("empty spelling: %v, %v", p, err)
	}
	for _, bad := range []string{"sometimes", "madvise"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("spelling %q accepted", bad)
		}
	}
}

func TestNilDaemonIsInert(t *testing.T) {
	var d *Daemon
	d.Register(nil)
	d.Start()
	d.Stop()
	d.ScanChunk(100)
	d.Instrument(func(name string, _ func() float64) { t.Fatalf("nil daemon registered %q", name) })
	if d.Stats() != (Stats{}) {
		t.Fatal("nil daemon has stats")
	}
}

func TestDaemonCollapsesDenseRunsOnClock(t *testing.T) {
	clock, h := newHost(t, 8)
	vm := denseVM(t, h, 2)
	cfg := DefaultConfig()
	cfg.Policy = PolicyAlways
	d := New(h, cfg)
	d.Register(vm)
	d.Start()
	clock.RunFor(2 * simclock.Second)
	if vm.HugeMappings() != 2 {
		t.Fatalf("huge mappings %d after daemon run, want 2", vm.HugeMappings())
	}
	s := d.Stats()
	if s.Collapses != 2 || s.PagesScanned == 0 || s.FullScans == 0 {
		t.Fatalf("stats %+v", s)
	}
	// Collapsed runs stay collapsed on later passes (already-huge is not a
	// failure).
	failed := s.CollapseFailed
	clock.RunFor(simclock.Second)
	if got := d.Stats().CollapseFailed; got != failed {
		t.Fatalf("already-huge runs counted as failures: %d -> %d", failed, got)
	}
	d.Stop()
	scanned := d.Stats().PagesScanned
	clock.RunFor(simclock.Second)
	if d.Stats().PagesScanned != scanned {
		t.Fatal("daemon kept scanning after Stop")
	}
}

func TestPolicyNeverNeverStarts(t *testing.T) {
	clock, h := newHost(t, 8)
	vm := denseVM(t, h, 1)
	d := New(h, DefaultConfig()) // Policy: never
	d.Register(vm)
	d.Start()
	clock.RunFor(2 * simclock.Second)
	if vm.HugeMappings() != 0 || d.Stats().PagesScanned != 0 {
		t.Fatalf("never policy acted: mappings=%d stats=%+v", vm.HugeMappings(), d.Stats())
	}
}

func TestRegisterIsIdempotentAndAlignsInward(t *testing.T) {
	_, h := newHost(t, 8)
	vm := denseVM(t, h, 1)
	cfg := DefaultConfig()
	cfg.Policy = PolicyAlways
	d := New(h, cfg)
	d.Register(vm)
	d.Register(vm)
	if len(d.regions) != 1 {
		t.Fatalf("duplicate registration: %d regions", len(d.regions))
	}
	// A guest smaller than one aligned run can never collapse and is not
	// registered at all.
	tiny := h.NewVM(hypervisor.VMConfig{Name: "tiny", GuestMemBytes: 8 * pg, Seed: 9})
	d.Register(tiny)
	if len(d.regions) != 1 {
		t.Fatal("sub-run guest registered")
	}
}

func TestSplitsElsewhereCounted(t *testing.T) {
	clock, h := newHost(t, 8)
	vm := denseVM(t, h, 1)
	cfg := DefaultConfig()
	cfg.Policy = PolicyAlways
	d := New(h, cfg)
	d.Register(vm)
	d.Start()
	clock.RunFor(simclock.Second)
	if vm.HugeMappings() != 1 {
		t.Fatal("setup: no collapse")
	}
	// A guest release splits the mapping; the daemon's split gauge must see
	// it via the host hook.
	vm.ReleaseGuestPage(3)
	if d.Stats().Splits != 1 {
		t.Fatalf("splits %d after release-driven split", d.Stats().Splits)
	}
}

func TestUnregisterDropsVMFromScan(t *testing.T) {
	clock, h := newHost(t, 16)
	vm1 := denseVM(t, h, 1)
	vm2 := h.NewVM(hypervisor.VMConfig{Name: "vm2", GuestMemBytes: int64(hp) * pg, Seed: 2})
	for i := uint64(0); i < hp; i++ {
		vm2.FillGuestPage(i, mem.Seed(2000+i))
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyAlways
	d := New(h, cfg)
	d.Register(vm1)
	d.Register(vm2)
	d.Start()

	// Drop vm2 mid-flight (as a guest kill does) and let the daemon run: it
	// must keep collapsing vm1 and never touch the dead process.
	d.Unregister(vm2)
	h.KillVM(vm2)
	clock.RunFor(2 * simclock.Second)
	if vm1.HugeMappings() != 1 {
		t.Fatalf("survivor not collapsed: %d huge mappings", vm1.HugeMappings())
	}
	if d.Stats().FullScans == 0 {
		t.Fatal("cursor never completed a pass after unregister")
	}

	// Unregistering the last region mid-pass leaves an empty, sane daemon.
	d.Unregister(vm1)
	scanned := d.Stats().PagesScanned
	clock.RunFor(simclock.Second)
	if d.Stats().PagesScanned != scanned {
		t.Fatal("daemon scanned with no registered regions")
	}
	d.Unregister(vm1)              // double unregister is a no-op
	(*Daemon)(nil).Unregister(vm1) // nil-safe like the rest of the API
}

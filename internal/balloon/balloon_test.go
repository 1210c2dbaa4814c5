package balloon

import (
	"testing"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const pg = mem.DefaultPageSize

func build(t *testing.T, hostPages, guestPages, cachePages int) (*hypervisor.Host, []*guestos.Kernel) {
	t.Helper()
	h := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: int64(hostPages) * pg}, simclock.New())
	var ks []*guestos.Kernel
	for i := 0; i < 2; i++ {
		vm := h.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: int64(guestPages) * pg, Seed: mem.Seed(i + 1)})
		k := guestos.Boot(vm, guestos.KernelConfig{Version: "v"})
		k.FS().InstallGenerated("/data", "1", int64(cachePages)*pg)
		k.ReadFileAll("/data")
		ks = append(ks, k)
	}
	return h, ks
}

func TestInflationShrinksPageCacheUnderPressure(t *testing.T) {
	// Host with 100 pages; two guests each caching 32 file pages → ~64 used.
	h, ks := build(t, 100, 64, 32)
	free := h.FreeBytes()
	m := NewManager(h, ks)
	got := m.ReclaimPages(24)
	if got == 0 {
		t.Fatal("no reclamation under pressure")
	}
	if h.FreeBytes() <= free {
		t.Fatal("host free memory did not grow")
	}
	for _, k := range ks {
		if k.Stats().PageCacheDrops == 0 {
			t.Fatal("guest page cache untouched")
		}
	}
}

func TestInflationBoundedByReclaimable(t *testing.T) {
	h, ks := build(t, 100, 64, 8)
	m := NewManager(h, ks)
	if got := m.ReclaimPages(1024); got > 16 {
		t.Fatalf("reclaimed %d pages, more than the caches hold", got)
	}
}

// The paper's point about ballooning: under pressure the guest gives up
// page cache (cheap, refetchable) so the hypervisor never has to swap
// (expensive, opaque). Same demand, with and without a balloon manager.
func TestInflationAvoidsHypervisorSwap(t *testing.T) {
	demand := func(t *testing.T, withBalloon bool) uint64 {
		t.Helper()
		h, ks := build(t, 160, 64, 48)
		free := h.FreeBytes()
		if withBalloon {
			if NewManager(h, ks).ReclaimPages(48) == 0 {
				t.Fatal("balloon reclaimed nothing")
			}
		}
		// A third tenant arrives needing more than the host has free; without
		// the balloon the hypervisor must swap someone out to fit it.
		vm := h.NewVM(hypervisor.VMConfig{Name: "late", GuestMemBytes: 128 * pg, Seed: 99})
		need := uint64(free/pg) + 16
		for i := uint64(0); i < need; i++ {
			vm.FillGuestPage(i, mem.Seed(1000+i))
		}
		return h.Stats().SwapOuts
	}
	if got := demand(t, false); got == 0 {
		t.Fatal("control run never swapped; demand too small to test the interaction")
	}
	if got := demand(t, true); got != 0 {
		t.Fatalf("hypervisor swapped %d pages despite balloon inflation", got)
	}
}

func TestReclaimPagesBoundedByRequest(t *testing.T) {
	h, ks := build(t, 1024, 128, 32)
	m := NewManager(h, ks)
	free := h.FreeBytes()
	got := m.ReclaimPages(20)
	if got == 0 {
		t.Fatal("targeted reclaim recovered nothing despite cached file pages")
	}
	if got > 20 {
		t.Fatalf("reclaimed %d pages, asked for 20", got)
	}
	if h.FreeBytes() <= free {
		t.Fatal("host free memory did not grow")
	}
	if m.ReclaimPages(0) != 0 {
		t.Fatal("zero-page request reclaimed something")
	}
}

func TestDropGuestAddGuestMembership(t *testing.T) {
	h, ks := build(t, 1024, 128, 32)
	m := NewManager(h, ks)
	m.DropGuest(ks[0])
	m.DropGuest(ks[0]) // a second drop finds nothing
	if m.ReclaimPages(10) == 0 {
		t.Fatal("remaining guest not reclaimable")
	}
	if drops := ks[0].Stats().PageCacheDrops; drops != 0 {
		t.Fatalf("dropped guest gave up %d cache pages", drops)
	}
	// A rebooted guest comes back and is reclaimable again.
	m.AddGuest(ks[0])
	if m.ReclaimPages(40) == 0 {
		t.Fatal("no reclamation after AddGuest")
	}
	if ks[0].Stats().PageCacheDrops == 0 {
		t.Fatal("re-added guest not reclaimable")
	}
}

func TestManagerCopiesKernelList(t *testing.T) {
	// The caller's slice may be mutated in place (guest kills compact it);
	// the manager must hold its own copy or its membership skews.
	h, ks := build(t, 1024, 128, 32)
	m := NewManager(h, ks)
	victim := ks[0]
	ks = append(ks[:0], ks[1:]...) // caller compacts its own list
	_ = ks
	if m.ReclaimPages(20) == 0 {
		t.Fatal("no reclamation")
	}
	if victim.Stats().PageCacheDrops == 0 {
		t.Fatal("manager lost track of a guest after caller mutation")
	}
}

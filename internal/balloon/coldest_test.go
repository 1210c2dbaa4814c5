package balloon

import (
	"testing"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

// buildDirty is build with hypervisor dirty logging on, which switches the
// balloon manager to coldest-first reclaim.
func buildDirty(t *testing.T, hostPages, guestPages, cachePages int) (*hypervisor.Host, []*guestos.Kernel) {
	t.Helper()
	h := hypervisor.NewHost(hypervisor.Config{
		Name:     "t",
		RAMBytes: int64(hostPages) * pg,
		DirtyLog: true,
	}, simclock.New())
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

// setWorkingSet seeds a kernel's VM with a dirty-drain observation so its
// working-set estimate reads as the given page count.
func setWorkingSet(t *testing.T, k *guestos.Kernel, pages int) {
	t.Helper()
	k.VM().ObserveDirtyDrain(pages)
}

func TestReclaimPagesDrainsColdestFirst(t *testing.T) {
	h, ks := buildDirty(t, 1024, 128, 32)
	setWorkingSet(t, ks[0], 500) // hot
	setWorkingSet(t, ks[1], 4)   // cold
	m := NewManager(h, ks)
	got := m.ReclaimPages(20)
	if got != 20 {
		t.Fatalf("reclaimed %d of 20 with 32 cached pages per guest", got)
	}
	if drops := ks[0].Stats().PageCacheDrops; drops != 0 {
		t.Fatalf("hot guest lost %d cache pages while the cold guest could cover the request", drops)
	}
	if drops := ks[1].Stats().PageCacheDrops; drops == 0 {
		t.Fatal("cold guest's page cache untouched")
	}
}

func TestReclaimSpillsToHotterGuestWhenColdRunsDry(t *testing.T) {
	h, ks := buildDirty(t, 1024, 128, 32)
	setWorkingSet(t, ks[0], 500)
	setWorkingSet(t, ks[1], 4)
	m := NewManager(h, ks)
	got := m.ReclaimPages(48) // more than one guest's 32-page cache
	if got != 48 {
		t.Fatalf("reclaimed %d of 48 with 64 cached pages total", got)
	}
	if drops := ks[0].Stats().PageCacheDrops; drops == 0 {
		t.Fatal("hot guest untouched although the cold guest ran dry")
	}
	if drops := ks[1].Stats().PageCacheDrops; drops < 32 {
		t.Fatalf("cold guest gave up %d pages, want its whole 32-page cache first", drops)
	}
}

func TestUnknownWorkingSetTreatedAsHot(t *testing.T) {
	h, ks := buildDirty(t, 1024, 128, 32)
	// ks[0] has no estimate yet (no drain observed); ks[1] looks busy but
	// still colder than "unknown".
	setWorkingSet(t, ks[1], 500)
	m := NewManager(h, ks)
	if got := m.ReclaimPages(20); got != 20 {
		t.Fatalf("reclaimed %d of 20", got)
	}
	if drops := ks[0].Stats().PageCacheDrops; drops != 0 {
		t.Fatal("guest without an estimate was reclaimed before a measured one")
	}
	if drops := ks[1].Stats().PageCacheDrops; drops == 0 {
		t.Fatal("measured guest untouched")
	}
}

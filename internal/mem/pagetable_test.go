package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// A third more PTEs per cache line than the padded 32-byte layout, and a
// 12 KiB leaf: a new field must not silently undo it.
func TestPTEPacksInto24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(PTE{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(PTE{}) = %d, want 24 (wide fields first, then the flags)", got)
	}
}

// The frame array is the pool's one per-page cost: the descriptor's checksum
// memo must fit the padding its flags leave, not add a word per frame.
func TestFramePacking(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(desc{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(desc{}) = %d, want 32 (the two flags first, then the words)", got)
	}
	if got := unsafe.Sizeof(frame{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(frame{}) = %d, want at most 40", got)
	}
	// A blob is an allocation of its own, one per live content: one more
	// flag byte moves it from the 64-byte size class to the 80-byte one.
	if got := unsafe.Sizeof(blob{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(blob{}) = %d, want 64 (one size class)", got)
	}
}

func TestPageTableSetLookupDelete(t *testing.T) {
	pt := NewPageTable()
	if _, ok := pt.Lookup(5); ok {
		t.Fatal("lookup on empty table succeeded")
	}
	pt.Set(5, PTE{Frame: 42, Writable: true})
	e, ok := pt.Lookup(5)
	if !ok || e.Frame != 42 || !e.Writable {
		t.Fatalf("lookup = %+v ok=%v", e, ok)
	}
	if pt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pt.Len())
	}
	old, ok := pt.Delete(5)
	if !ok || old.Frame != 42 {
		t.Fatalf("delete = %+v ok=%v", old, ok)
	}
	if _, ok := pt.Delete(5); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestSortedVPNsAscending(t *testing.T) {
	pt := NewPageTable()
	for _, v := range []VPN{9, 1, 7, 3, 5} {
		pt.Set(v, PTE{Frame: FrameID(v)})
	}
	vpns := pt.SortedVPNs()
	for i := 1; i < len(vpns); i++ {
		if vpns[i] <= vpns[i-1] {
			t.Fatalf("not ascending: %v", vpns)
		}
	}
	if len(vpns) != 5 {
		t.Fatalf("len = %d, want 5", len(vpns))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	pt := NewPageTable()
	for v := VPN(0); v < 10; v++ {
		pt.Set(v, PTE{})
	}
	n := 0
	pt.Range(func(vpn VPN, _ PTE) bool {
		n++
		return vpn < 4 // stop after visiting vpn 4
	})
	if n != 5 {
		t.Fatalf("visited %d entries, want 5", n)
	}
}

func TestPresentCount(t *testing.T) {
	pt := NewPageTable()
	pt.Set(1, PTE{Frame: 1})
	pt.Set(2, PTE{Swapped: true, Frame: NilFrame})
	pt.Set(3, PTE{Frame: 3})
	if got := pt.PresentCount(); got != 2 {
		t.Fatalf("PresentCount = %d, want 2", got)
	}
}

func TestPropertySetLookupRoundTrip(t *testing.T) {
	f := func(vpns []uint32) bool {
		pt := NewPageTable()
		seen := map[VPN]bool{}
		for i, v := range vpns {
			pt.Set(VPN(v), PTE{Frame: FrameID(i)})
			seen[VPN(v)] = true
		}
		if pt.Len() != len(seen) {
			return false
		}
		for v := range seen {
			if _, ok := pt.Lookup(v); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestHugeLookupSynthesizesRun(t *testing.T) {
	pt := NewPageTable()
	pt.InstallHuge(HugePages, PTE{Frame: 512, Writable: true, LastUse: 7})
	if pt.Len() != 1 || pt.HugeMappings() != 1 {
		t.Fatalf("len=%d huge=%d after one huge install", pt.Len(), pt.HugeMappings())
	}
	for i := VPN(0); i < HugePages; i++ {
		e, ok := pt.Lookup(HugePages + i)
		if !ok {
			t.Fatalf("vpn %d in run not mapped", HugePages+i)
		}
		if !e.Huge || e.Frame != 512+FrameID(i) || !e.Writable || e.LastUse != 7 {
			t.Fatalf("vpn %d synthesized wrong: %+v", HugePages+i, e)
		}
	}
	if _, ok := pt.Lookup(HugePages - 1); ok {
		t.Fatal("page before the run mapped")
	}
	if _, ok := pt.Lookup(2 * HugePages); ok {
		t.Fatal("page after the run mapped")
	}
}

func TestHugeMutationGuards(t *testing.T) {
	pt := NewPageTable()
	pt.InstallHuge(0, PTE{Frame: 0})
	mustPanic(t, "Set of base PTE inside huge run", func() { pt.Set(3, PTE{Frame: 900}) })
	mustPanic(t, "Set of non-huge PTE over huge head", func() { pt.Set(0, PTE{Frame: 900}) })
	mustPanic(t, "Delete inside huge run", func() { pt.Delete(5) })
	mustPanic(t, "Delete of huge head", func() { pt.Delete(0) })
	mustPanic(t, "huge Set at unaligned vpn", func() { pt.Set(HugePages+1, PTE{Frame: 512, Huge: true}) })
	mustPanic(t, "InstallHuge at unaligned vpn", func() { pt.InstallHuge(HugePages+1, PTE{Frame: 512}) })
	mustPanic(t, "InstallHuge over huge run", func() { pt.InstallHuge(0, PTE{Frame: 512}) })
	mustPanic(t, "SplitHuge of non-huge vpn", func() { pt.SplitHuge(HugePages) })
}

func TestInstallHugeDropsBaseEntries(t *testing.T) {
	pt := NewPageTable()
	pt.Set(1, PTE{Frame: 100})
	pt.Set(2, PTE{Frame: 101, Swapped: true, SwapSlot: 9})
	pt.Set(HugePages+3, PTE{Frame: 200})
	pt.InstallHuge(0, PTE{Frame: 0, Writable: true})
	if got := pt.PresentCount(); got != HugePages+1 {
		t.Fatalf("present %d, want run (%d) + outside page", got, HugePages)
	}
	e, _ := pt.Lookup(2)
	if e.Swapped || e.Frame != 2 {
		t.Fatalf("swapped base entry survived collapse: %+v", e)
	}
	if e, _ := pt.Lookup(HugePages + 3); e.Huge || e.Frame != 200 {
		t.Fatalf("entry outside the run disturbed: %+v", e)
	}
}

func TestSplitHugeRoundTrip(t *testing.T) {
	pt := NewPageTable()
	pt.InstallHuge(0, PTE{Frame: 1024, Writable: true, LastUse: 3})
	before := pt.PresentCount()
	pt.SplitHuge(0)
	if pt.HugeMappings() != 0 {
		t.Fatal("huge mapping survived split")
	}
	if pt.PresentCount() != before {
		t.Fatalf("present changed across split: %d -> %d", before, pt.PresentCount())
	}
	if pt.Len() != HugePages {
		t.Fatalf("len %d after split, want %d base entries", pt.Len(), HugePages)
	}
	for i := VPN(0); i < HugePages; i++ {
		e, ok := pt.Lookup(i)
		if !ok || e.Huge || e.Frame != 1024+FrameID(i) || !e.Writable || e.LastUse != 3 {
			t.Fatalf("vpn %d wrong after split: %+v ok=%v", i, e, ok)
		}
	}
	// Base entries are mutable again.
	pt.Set(3, PTE{Frame: 9000})
	if _, ok := pt.Delete(4); !ok {
		t.Fatal("delete of split base entry failed")
	}
	if pt.PresentCount() != before-1 {
		t.Fatalf("present %d after one delete", pt.PresentCount())
	}
}

func TestPresentCountMatchesRecountWithHuge(t *testing.T) {
	pt := NewPageTable()
	pt.Set(5, PTE{Frame: 1})
	pt.Set(6, PTE{Swapped: true, SwapSlot: 1})
	pt.InstallHuge(HugePages, PTE{Frame: 512})
	pt.InstallHuge(4*HugePages, PTE{Frame: 1536})
	pt.SplitHuge(4 * HugePages)
	pt.Delete(4*HugePages + 7)
	recount := 0
	pt.Range(func(_ VPN, e PTE) bool {
		recount += pteResident(e)
		return true
	})
	if pt.PresentCount() != recount {
		t.Fatalf("PresentCount %d, recount %d", pt.PresentCount(), recount)
	}
	if want := 1 + HugePages + (HugePages - 1); recount != want {
		t.Fatalf("recount %d, want %d", recount, want)
	}
}

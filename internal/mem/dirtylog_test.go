package mem

import "testing"

func TestDirtyRingDedupPerCycle(t *testing.T) {
	r := NewDirtyRing(8)
	r.Log(3)
	r.Log(3)
	r.Log(5)
	r.Log(3)
	if r.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", r.Depth())
	}
	if r.Appends() != 2 {
		t.Fatalf("appends = %d, want 2", r.Appends())
	}
	pages, full := r.Drain()
	if full {
		t.Fatal("unexpected overflow")
	}
	if len(pages) != 2 || pages[0] != 3 || pages[1] != 5 {
		t.Fatalf("pages = %v, want [3 5]", pages)
	}
	// A new cycle may log the same page again.
	r.Log(3)
	if r.Depth() != 1 {
		t.Fatalf("depth after re-log = %d, want 1", r.Depth())
	}
}

func TestDirtyRingOverflowLatches(t *testing.T) {
	r := NewDirtyRing(2)
	r.Log(1)
	r.Log(2)
	if r.Overflowed() {
		t.Fatal("overflowed before the wall")
	}
	r.Log(3)
	r.Log(4)
	if !r.Overflowed() {
		t.Fatal("overflow not latched")
	}
	if r.Overflows() != 1 {
		t.Fatalf("overflows = %d, want 1 (latched once per cycle)", r.Overflows())
	}
	// Pages logged before the wall are retained; the flag tells the consumer
	// the list is incomplete.
	pages, full := r.Drain()
	if !full || len(pages) != 2 {
		t.Fatalf("drain = (%v, %v), want 2 pages + overflow", pages, full)
	}
	if r.Overflowed() || r.Depth() != 0 {
		t.Fatal("drain did not reset the cycle")
	}
	// The next cycle can overflow again.
	r.Log(1)
	r.Log(2)
	r.Log(3)
	if r.Overflows() != 2 {
		t.Fatalf("overflows = %d, want 2", r.Overflows())
	}
}

func TestDirtyRingReset(t *testing.T) {
	r := NewDirtyRing(2)
	r.Log(7)
	r.Log(8)
	r.Log(9)
	n, full := r.Reset()
	if n != 2 || !full {
		t.Fatalf("reset = (%d, %v), want (2, true)", n, full)
	}
	if r.Depth() != 0 || r.Overflowed() {
		t.Fatal("reset left state behind")
	}
	if n, full := r.Reset(); n != 0 || full {
		t.Fatalf("idle reset = (%d, %v), want (0, false)", n, full)
	}
}

func TestDirtyRingDefaultCap(t *testing.T) {
	if got := NewDirtyRing(0).Cap(); got != DefaultDirtyRingPages {
		t.Fatalf("cap = %d, want %d", got, DefaultDirtyRingPages)
	}
}

// The dirty bits grow to the highest page logged: a page far above anything
// seen so far dedups, drains and clears like its neighbours.
func TestDirtyRingGrowsToFarPage(t *testing.T) {
	r := NewDirtyRing(8)
	const far = 1<<20 + 37
	r.Log(3)
	r.Log(far)
	r.Log(far)
	r.Log(far - 64) // same bit position, an earlier word
	if r.Depth() != 3 || r.Appends() != 3 {
		t.Fatalf("depth=%d appends=%d, want 3/3", r.Depth(), r.Appends())
	}
	pages, full := r.Drain()
	if full || len(pages) != 3 || pages[1] != far {
		t.Fatalf("drain = (%v, %v)", pages, full)
	}
	// The drain cleared every bit, the far one included.
	r.Log(far)
	if n, _ := r.Reset(); n != 1 {
		t.Fatalf("far page not logged again after the drain: reset dropped %d", n)
	}
	r.Log(far)
	if r.Depth() != 1 {
		t.Fatal("far page not logged again after the reset")
	}
}

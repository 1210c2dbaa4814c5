package mem

import (
	"reflect"
	"testing"
)

func seededFrames(t *testing.T, pm *PhysMem, seeds ...Seed) []FrameID {
	t.Helper()
	var ids []FrameID
	for _, s := range seeds {
		id, err := pm.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pm.FillFrame(id, s)
		ids = append(ids, id)
	}
	return ids
}

// TestROViewFillsEachFrameOncePerPhase: a seeded probe compared against frame
// after frame is regenerated once, not once per comparison, and Fills lists
// every regenerated frame once, in first-regeneration order — also when a
// frame leaves a buffer and comes back. Materialize lists a seeded frame
// without generating it.
func TestROViewFillsEachFrameOncePerPhase(t *testing.T) {
	pm := NewPhysMem(16*DefaultPageSize, DefaultPageSize)
	f := seededFrames(t, pm, 1, 2, 3, 4)
	probe, a, b, c := f[0], f[1], f[2], f[3]
	// One forged checksum for all four seeds, so that Equal cannot stop short
	// of the bytes.
	for seed := Seed(1); seed <= 4; seed++ {
		pm.cs.seedSums[seed] = 99
	}
	v := pm.NewROView()
	for _, n := range []FrameID{a, b, c, a, b} {
		if v.Equal(probe, n) {
			t.Fatalf("Equal(%d, %d) across different content", probe, n)
		}
	}
	if m := pm.Stats().Materialized; m != 0 {
		t.Fatalf("view comparisons materialized %d pages", m)
	}
	if got, want := v.Fills(), []FrameID{probe, a, b, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Fills = %v, want %v (each frame once)", got, want)
	}
	// A new phase forgets both the log and what the buffers hold: the same
	// comparison must put its frames on the list again.
	v.ResetFills()
	if len(v.Fills()) != 0 {
		t.Fatalf("Fills after reset = %v", v.Fills())
	}
	v.Equal(probe, b)
	if got, want := v.Fills(), []FrameID{probe, b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Fills in the second phase = %v, want %v", got, want)
	}
	// Materialize only lists: a seeded frame once, a zero frame not at all,
	// and the buffers go on holding what the comparison left in them.
	zero, _ := pm.Alloc()
	for _, id := range []FrameID{c, probe, zero, c} {
		v.Materialize(id)
	}
	if got, want := v.Fills(), []FrameID{probe, b, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Fills after Materialize = %v, want %v", got, want)
	}
	if v.bufA.frame != probe || v.bufB.frame != b || pm.Stats().Materialized != 0 {
		t.Fatalf("Materialize generated content: buffers hold %d and %d, pool materialized %d",
			v.bufA.frame, v.bufB.frame, pm.Stats().Materialized)
	}
}

// TestROViewBufferNotServedStale: a frame refilled with another seed must not
// be answered from the buffer that still holds its old content.
func TestROViewBufferNotServedStale(t *testing.T) {
	pm := NewPhysMem(16*DefaultPageSize, DefaultPageSize)
	f := seededFrames(t, pm, 1, 2)
	x, y := f[0], f[1]
	v := pm.NewROView()
	if v.Equal(x, y) {
		t.Fatal("different seeds compare equal")
	}
	// x becomes byte-identical to y; y turns literal so that only a byte
	// comparison, not the descriptors, can say so.
	pm.FillFrame(x, 2)
	pm.Write(y, 0, FillBytes(DefaultPageSize, 2))
	if !v.Equal(x, y) {
		t.Fatal("stale buffer: refilled frame still compares with its old content")
	}
}

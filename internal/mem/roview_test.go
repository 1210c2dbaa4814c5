package mem

import (
	"encoding/binary"
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

// TestROViewFillsEachFrameOncePerPhase: a seeded probe compared against node
// after node is regenerated once, not once per node, and Fills lists every
// regenerated frame once, in first-regeneration order — also when a frame
// leaves a buffer and comes back.
func TestROViewFillsEachFrameOncePerPhase(t *testing.T) {
	pm := NewPhysMem(16*DefaultPageSize, DefaultPageSize)
	f := seededFrames(t, pm, 1, 2, 3, 4)
	probe, a, b, c := f[0], f[1], f[2], f[3]
	// The mutating accessors of a twin pool give the expected answers without
	// materializing anything in the pool under test.
	twin := NewPhysMem(16*DefaultPageSize, DefaultPageSize)
	seededFrames(t, twin, 1, 2, 3, 4)
	v := pm.NewROView()
	for _, n := range []FrameID{a, b, c, a, b} {
		if got, want := v.Compare(probe, n), twin.Compare(probe, n); got != want {
			t.Fatalf("Compare(%d, %d) = %d, pool says %d", probe, n, got, want)
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
	v.Compare(probe, b)
	if got, want := v.Fills(), []FrameID{probe, b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Fills in the second phase = %v, want %v", got, want)
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
	if v.Compare(x, y) != 0 {
		t.Fatal("stale buffer in Compare")
	}
}

// TestPrefixNeverMaterializes: Prefix is the big-endian head of the bytes for
// zero and literal frames, and refuses seeded frames until something has read
// them — through the pool (materialized) or through the view (buffered).
func TestPrefixNeverMaterializes(t *testing.T) {
	pm := NewPhysMem(16*DefaultPageSize, DefaultPageSize)
	f := seededFrames(t, pm, 11, 12)
	seeded, other := f[0], f[1]
	zero, _ := pm.Alloc()
	v := pm.NewROView()
	if p, ok := pm.Prefix(zero); !ok || p != 0 {
		t.Fatalf("zero page prefix = %#x, %v", p, ok)
	}
	if _, ok := pm.Prefix(seeded); ok {
		t.Fatal("pool reports a prefix for an unread seeded frame")
	}
	if _, ok := v.Prefix(seeded); ok {
		t.Fatal("view reports a prefix for an unread seeded frame")
	}
	want := binary.BigEndian.Uint64(FillBytes(DefaultPageSize, 11))
	v.Compare(seeded, other)
	if p, ok := v.Prefix(seeded); !ok || p != want {
		t.Fatalf("view prefix after a comparison = %#x, %v; want %#x", p, ok, want)
	}
	if _, ok := pm.Prefix(seeded); ok || pm.Stats().Materialized != 0 {
		t.Fatalf("view read wrote pool state (materialized %d)", pm.Stats().Materialized)
	}
	pm.Compare(seeded, other)
	if p, ok := pm.Prefix(seeded); !ok || p != want {
		t.Fatalf("pool prefix after a comparison = %#x, %v; want %#x", p, ok, want)
	}
	// Integer order on prefixes is byte order wherever prefixes differ.
	pa, _ := pm.Prefix(seeded)
	pb, _ := pm.Prefix(other)
	if pa != pb && (pa < pb) != (pm.Compare(seeded, other) < 0) {
		t.Fatal("prefix order disagrees with Compare")
	}
}

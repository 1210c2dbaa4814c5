package mem

import (
	"encoding/binary"
	"reflect"
	"sync"
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

// TestPrefixCacheFollowsContent: a literal blob answers Prefix from the copy
// cached beside its checksum, so every path that validates the checksum must
// write the prefix and every in-place write must drop both.
func TestPrefixCacheFollowsContent(t *testing.T) {
	pm := NewPhysMem(16*DefaultPageSize, DefaultPageSize)
	v := pm.NewROView()
	check := func(id FrameID, when string) {
		t.Helper()
		want := binary.BigEndian.Uint64(pm.Bytes(id))
		for name, prefix := range map[string]func(FrameID) (uint64, bool){"pool": pm.Prefix, "view": v.Prefix} {
			if got, ok := prefix(id); !ok || got != want {
				t.Fatalf("%s, %s: Prefix = %#x, %v; bytes start %#x", when, name, got, ok, want)
			}
		}
	}
	cached := func(id FrameID) bool { return pm.frameAt(id).desc.blob.sumValid }

	// A private blob: checksum() caches, in-place writes invalidate.
	priv, _ := pm.Alloc()
	pm.Write(priv, 100, []byte{1, 2, 3})
	check(priv, "fresh private blob, nothing cached")
	pm.Checksum(priv)
	check(priv, "after Checksum")
	pm.Write(priv, 0, []byte{9, 8, 7, 6, 5, 4, 3, 2})
	if cached(priv) {
		t.Fatal("in-place Write left the cached sum and prefix valid")
	}
	check(priv, "after an in-place Write to bytes 0-7")
	pm.Checksum(priv)
	pm.Write(priv, 7, []byte{0xee, 0xdd})
	check(priv, "after an in-place Write straddling byte 7")
	pm.Checksum(priv)
	pm.Write(priv, 2000, []byte{0xcc})
	check(priv, "after an in-place Write elsewhere")

	// AdoptChecksum validates without having computed: the prefix rides
	// along, here replacing the one cached before byte 0 changed.
	pm.Checksum(priv)
	pm.Write(priv, 0, []byte{0x77})
	pm.AdoptChecksum(priv, v.Checksum(priv))
	if !cached(priv) {
		t.Fatal("AdoptChecksum cached nothing")
	}
	check(priv, "after AdoptChecksum")
	if got, want := pm.Checksum(priv), ChecksumBytes(pm.Bytes(priv)); got != want {
		t.Fatalf("adopted checksum %#x, content %#x", got, want)
	}

	// intern (materializing a seeded page) leaves the new blob valid.
	seeded := seededFrames(t, pm, 21)[0]
	pm.Materialize(seeded)
	if !cached(seeded) {
		t.Fatal("interned blob has no cached sum")
	}
	check(seeded, "after intern")

	// A write to the interned blob copies; the copy starts uncached and the
	// aliases keep their own prefix.
	alias, _ := pm.Alloc()
	pm.CopyFrame(alias, seeded)
	pm.Write(alias, 0, []byte{0x42})
	check(alias, "copy-on-write copy")
	check(seeded, "copy-on-write source")
}

// TestROViewPrefixConcurrentReaders: shard workers read cached prefixes and
// checksums of the same blobs at once; under -race this shows the view's
// Prefix and Checksum only read them.
func TestROViewPrefixConcurrentReaders(t *testing.T) {
	pm := NewPhysMem(64*DefaultPageSize, DefaultPageSize)
	var ids []FrameID
	for i := 0; i < 32; i++ {
		id, _ := pm.Alloc()
		pm.Write(id, 0, []byte{byte(i + 1), 1, 2, 3, 4, 5, 6, 7})
		if i%2 == 0 {
			pm.Checksum(id) // half cached, half not
		}
		ids = append(ids, id)
	}
	type answer struct{ prefix, sum uint64 }
	answers := make([][]answer, 4)
	var wg sync.WaitGroup
	for w := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := pm.NewROView()
			for _, id := range ids {
				p, _ := v.Prefix(id)
				answers[w] = append(answers[w], answer{p, v.Checksum(id)})
			}
		}()
	}
	wg.Wait()
	for i, id := range ids {
		want := answer{binary.BigEndian.Uint64(pm.Bytes(id)), pm.Checksum(id)}
		for w := range answers {
			if answers[w][i] != want {
				t.Fatalf("reader %d, frame %d: %+v, want %+v", w, id, answers[w][i], want)
			}
		}
	}
}

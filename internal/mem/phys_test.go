package mem

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func newPool(t *testing.T, pages int) *PhysMem {
	t.Helper()
	return NewPhysMem(int64(pages)*DefaultPageSize, DefaultPageSize)
}

func TestAllocFreeCycle(t *testing.T) {
	pm := newPool(t, 4)
	var ids []FrameID
	for i := 0; i < 4; i++ {
		id, err := pm.Alloc()
		if err != nil {
			t.Fatalf("Alloc #%d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, err := pm.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("Alloc on full pool: err = %v, want ErrOutOfMemory", err)
	}
	if pm.FramesInUse() != 4 || pm.FreeFrames() != 0 {
		t.Fatalf("in use %d free %d, want 4/0", pm.FramesInUse(), pm.FreeFrames())
	}
	for _, id := range ids {
		pm.DecRef(id)
	}
	if pm.FramesInUse() != 0 || pm.FreeFrames() != 4 {
		t.Fatalf("after free: in use %d free %d, want 0/4", pm.FramesInUse(), pm.FreeFrames())
	}
}

func TestAllocDeterministicOrder(t *testing.T) {
	pm := newPool(t, 3)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	c, _ := pm.Alloc()
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("alloc order = %d,%d,%d, want 0,1,2", a, b, c)
	}
}

func TestFreshFrameIsZero(t *testing.T) {
	pm := newPool(t, 2)
	id, _ := pm.Alloc()
	if !pm.IsZero(id) {
		t.Fatal("fresh frame not zero")
	}
	for _, b := range pm.Bytes(id) {
		if b != 0 {
			t.Fatal("fresh frame bytes not zero")
		}
	}
}

func TestWriteMaterializesAndReads(t *testing.T) {
	pm := newPool(t, 2)
	id, _ := pm.Alloc()
	pm.Write(id, 100, []byte{1, 2, 3})
	b := pm.Bytes(id)
	if b[100] != 1 || b[101] != 2 || b[102] != 3 {
		t.Fatalf("bytes at 100 = %v", b[100:103])
	}
	if pm.IsZero(id) {
		t.Fatal("written frame reported zero")
	}
}

func TestZeroWriteToZeroPageStaysLazy(t *testing.T) {
	pm := newPool(t, 2)
	id, _ := pm.Alloc()
	pm.Write(id, 0, make([]byte, 64))
	if pm.Stats().Materialized != 0 {
		t.Fatal("zero write materialized the page")
	}
	if !pm.IsZero(id) {
		t.Fatal("frame no longer zero after zero write")
	}
}

func TestRefcountSharing(t *testing.T) {
	pm := newPool(t, 2)
	id, _ := pm.Alloc()
	pm.IncRef(id)
	pm.IncRef(id)
	if got := pm.RefCount(id); got != 3 {
		t.Fatalf("RefCount = %d, want 3", got)
	}
	pm.DecRef(id)
	pm.DecRef(id)
	if pm.FramesInUse() != 1 {
		t.Fatal("frame freed while references remain")
	}
	pm.DecRef(id)
	if pm.FramesInUse() != 0 {
		t.Fatal("frame not freed at refcount 0")
	}
}

func TestUseAfterFreePanics(t *testing.T) {
	pm := newPool(t, 2)
	id, _ := pm.Alloc()
	pm.DecRef(id)
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes on freed frame did not panic")
		}
	}()
	pm.Bytes(id)
}

func TestKSMFrameWriteProtected(t *testing.T) {
	pm := newPool(t, 2)
	id, _ := pm.Alloc()
	pm.SetKSM(id, true)
	if !pm.IsKSM(id) {
		t.Fatal("IsKSM false after SetKSM")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write to KSM stable frame did not panic")
		}
	}()
	pm.Write(id, 0, []byte{1})
}

func TestEqualAndCompare(t *testing.T) {
	pm := newPool(t, 4)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	c, _ := pm.Alloc()
	if !pm.Equal(a, b) {
		t.Fatal("two zero frames not equal")
	}
	pm.FillFrame(a, 42)
	pm.FillFrame(b, 42)
	pm.FillFrame(c, 43)
	if !pm.Equal(a, b) {
		t.Fatal("same-seed frames not equal")
	}
	if pm.Equal(a, c) {
		t.Fatal("different-seed frames equal")
	}
	if pm.Compare(a, b) != 0 {
		t.Fatal("Compare(a,b) != 0 for equal frames")
	}
	if x, y := pm.Compare(a, c), pm.Compare(c, a); x == 0 || y == 0 || (x < 0) == (y < 0) {
		t.Fatalf("Compare not antisymmetric: %d vs %d", x, y)
	}
}

func TestEqualZeroVsMaterializedZero(t *testing.T) {
	pm := newPool(t, 2)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	pm.Write(b, 0, []byte{7}) // materialize
	pm.Write(b, 0, []byte{0}) // back to all-zero content, still materialized
	if !pm.Equal(a, b) || !pm.Equal(b, a) {
		t.Fatal("lazy zero and materialized zero not equal")
	}
}

// TestMaterializeDefersBytes holds the deferred blob to its contract: a
// Materialize of a seed no blob shares a checksum with counts as the interned
// page it stands for but takes no buffer; the first read generates exactly
// one; and every operation on a still-deferred blob answers as on a
// generated one.
func TestMaterializeDefersBytes(t *testing.T) {
	const seed = Seed(77)
	want := FillBytes(DefaultPageSize, seed)
	// pool returns a pool holding one recycled buffer and, in frame a, seed's
	// page interned by Materialize; generated reads it once.
	pool := func(t *testing.T, generated bool) (*PhysMem, FrameID) {
		t.Helper()
		pm := newPool(t, 8)
		a, _ := pm.Alloc()
		pm.Write(a, 0, []byte{1}) // a private blob, which dies here
		pm.ZeroFrame(a)
		pm.FillFrame(a, seed)
		pooled := len(pm.cs.freeBufs)
		pm.Materialize(a)
		if got := len(pm.cs.freeBufs); got != pooled {
			t.Fatalf("Materialize took a buffer: %d pooled before, %d after", pooled, got)
		}
		if !pm.frames[a].desc.blob.deferred() {
			t.Fatal("Materialize generated the page")
		}
		wantStats := ContentStats{Blobs: 1, BlobBytes: DefaultPageSize, InternedBlobs: 1, SeedSums: 1}
		if got := pm.ContentStats(); got != wantStats || pm.Stats().Materialized != 2 {
			t.Fatalf("after Materialize: %+v, Materialized %d; want %+v, 2", got, pm.Stats().Materialized, wantStats)
		}
		if generated {
			if !bytes.Equal(pm.Bytes(a), want) {
				t.Fatal("first Bytes differs from FillBytes")
			}
			if got := len(pm.cs.freeBufs); got != pooled-1 {
				t.Fatalf("first Bytes took %d buffers, want 1", pooled-got)
			}
			if got := pm.ContentStats(); got != wantStats {
				t.Fatalf("first Bytes moved ContentStats to %+v", got)
			}
		}
		return pm, a
	}
	for _, op := range []struct {
		name string
		run  func(t *testing.T, pm *PhysMem, a FrameID) []byte // the content op leaves behind
	}{
		{"Equal", func(t *testing.T, pm *PhysMem, a FrameID) []byte {
			same, _ := pm.Alloc()
			pm.Write(same, 0, want)
			other, _ := pm.Alloc()
			pm.FillFrame(other, seed+1)
			if !pm.Equal(a, same) || !pm.Equal(same, a) || pm.Equal(a, other) {
				t.Error("Equal disagrees with the bytes")
			}
			return pm.Bytes(a)
		}},
		{"IsZero", func(t *testing.T, pm *PhysMem, a FrameID) []byte {
			if pm.IsZero(a) {
				t.Error("IsZero on a seeded page")
			}
			return pm.Bytes(a)
		}},
		{"Write", func(t *testing.T, pm *PhysMem, a FrameID) []byte {
			alias, _ := pm.Alloc()
			pm.CopyFrame(alias, a)
			pm.Write(a, 100, []byte{1, 2, 3})
			if !bytes.Equal(pm.Bytes(alias), want) {
				t.Error("copy-on-write changed the shared blob")
			}
			return pm.Bytes(a)
		}},
		{"Snapshot", func(t *testing.T, pm *PhysMem, a FrameID) []byte {
			c := pm.Snapshot(a)
			pm.ZeroFrame(a)
			dst, _ := pm.Alloc()
			pm.Restore(dst, c)
			return pm.Bytes(dst)
		}},
		{"Intern", func(t *testing.T, pm *PhysMem, a FrameID) []byte {
			// An interned literal copy of the page: a seeded page interned
			// now meets a non-empty chain, generates and attaches to it.
			lit, _ := pm.Alloc()
			pm.Write(lit, 0, want)
			pm.ZeroFrame(a)
			pm.Release(pm.Snapshot(lit))
			b, _ := pm.Alloc()
			pm.FillFrame(b, seed)
			pm.Materialize(b)
			if pm.frames[b].desc.blob != pm.frames[lit].desc.blob {
				t.Error("Materialize did not attach to the interned copy")
			}
			return pm.Bytes(b)
		}},
	} {
		t.Run(op.name, func(t *testing.T) {
			deferred, a := pool(t, false)
			gotDeferred := bytes.Clone(op.run(t, deferred, a))
			generated, a := pool(t, true)
			gotGenerated := op.run(t, generated, a)
			if !bytes.Equal(gotDeferred, gotGenerated) {
				t.Error("content differs between the deferred and the generated blob")
			}
			if d, g := deferred.ContentStats(), generated.ContentStats(); d != g {
				t.Errorf("ContentStats: deferred %+v, generated %+v", d, g)
			}
			if d, g := deferred.Stats(), generated.Stats(); d != g {
				t.Errorf("Stats: deferred %+v, generated %+v", d, g)
			}
		})
	}
}

// TestEqualReadsNoBytesForOneBlob compares seeded pages with the stable
// frame holding their seed's deferred blob, in both argument orders: each
// probe interns into that blob, so Equal answers without generating it, and
// the store counters are the ones a byte compare leaves.
func TestEqualReadsNoBytesForOneBlob(t *testing.T) {
	const seed = Seed(77)
	pm := newPool(t, 8)
	stable, _ := pm.Alloc()
	pm.Write(stable, 0, []byte{1}) // a private blob, which dies here
	pm.ZeroFrame(stable)
	pm.FillFrame(stable, seed)
	pm.Materialize(stable)
	pm.SetKSM(stable, true)
	pooled := len(pm.cs.freeBufs)
	for i, probeFirst := range []bool{true, false} {
		probe, _ := pm.Alloc()
		pm.FillFrame(probe, seed)
		a, b := stable, probe
		if probeFirst {
			a, b = b, a
		}
		if !pm.Equal(a, b) {
			t.Fatalf("probe %d: seeded page unequal to its own seed's blob", i)
		}
		if pm.frames[probe].desc.blob != pm.frames[stable].desc.blob {
			t.Fatalf("probe %d did not intern into the stable blob", i)
		}
	}
	if !pm.frames[stable].desc.blob.deferred() {
		t.Error("Equal generated the page")
	}
	if got := len(pm.cs.freeBufs); got != pooled {
		t.Errorf("Equal took a buffer: %d pooled before, %d after", pooled, got)
	}
	wantStats := ContentStats{Blobs: 1, BlobBytes: DefaultPageSize, InternedBlobs: 1, SeedSums: 1, InternHits: 2}
	if got := pm.ContentStats(); got != wantStats || pm.Stats().Materialized != 2 {
		t.Errorf("ContentStats %+v, Materialized %d; want %+v, 2", got, pm.Stats().Materialized, wantStats)
	}
}

func TestChecksumMatchesContent(t *testing.T) {
	pm := newPool(t, 3)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	pm.FillFrame(a, 7)
	pm.FillFrame(b, 7)
	if pm.Checksum(a) != pm.Checksum(b) {
		t.Fatal("equal content, different checksums")
	}
	z, _ := pm.Alloc()
	if pm.Checksum(z) != ChecksumBytes(make([]byte, DefaultPageSize)) {
		t.Fatal("zero page checksum mismatch")
	}
}

// TestChecksumZeroFramesConcurrentPools guards the fix for the shared
// zero-checksum cache: checksumming zero frames used to write a
// package-level map, a data race once two clusters (each with its own pool)
// run concurrently. Run under -race, independent pools must be able to
// checksum zero frames simultaneously.
func TestChecksumZeroFramesConcurrentPools(t *testing.T) {
	want := ChecksumBytes(make([]byte, DefaultPageSize))
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			pm := NewPhysMem(8*DefaultPageSize, DefaultPageSize)
			for i := 0; i < 100; i++ {
				id, err := pm.Alloc()
				if err != nil {
					done <- err
					return
				}
				if got := pm.Checksum(id); got != want {
					done <- fmt.Errorf("zero checksum = %#x, want %#x", got, want)
					return
				}
				pm.DecRef(id)
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCopyFrame(t *testing.T) {
	pm := newPool(t, 3)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	pm.FillFrame(a, 99)
	pm.CopyFrame(b, a)
	if !pm.Equal(a, b) {
		t.Fatal("copy not equal to source")
	}
	// Copy of a lazy zero page drops the destination's bytes.
	z, _ := pm.Alloc()
	pm.CopyFrame(b, z)
	if !pm.IsZero(b) {
		t.Fatal("copy of zero page did not zero destination")
	}
}

func TestZeroFrameResets(t *testing.T) {
	pm := newPool(t, 2)
	a, _ := pm.Alloc()
	pm.FillFrame(a, 5)
	pm.ZeroFrame(a)
	if !pm.IsZero(a) {
		t.Fatal("ZeroFrame did not zero")
	}
}

func TestPropertyFillDeterministic(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		size := int(n%2048) + 1
		a := FillBytes(size, Seed(seed))
		b := FillBytes(size, Seed(seed))
		if len(a) != size {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDifferentSeedsDiffer(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		if s1 == s2 {
			return true
		}
		a := FillBytes(256, Seed(s1))
		b := FillBytes(256, Seed(s2))
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		return same < len(a) // not byte-identical
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCombineOrderMatters(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Combine(Seed(a), Seed(b)) != Combine(Seed(b), Seed(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("java/lang/Object") != HashString("java/lang/Object") {
		t.Fatal("HashString not deterministic")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("trivial collision")
	}
}

// TestGaugeCountersTrackTransitions walks a frame through every lifecycle
// transition and checks the maintained KSMFrames/ZeroFrames gauges against
// a brute-force recount, so telemetry sampling never needs a frame walk.
func TestGaugeCountersTrackTransitions(t *testing.T) {
	pm := newPool(t, 8)
	recount := func() (ksm, zero int) {
		for id := 0; id < pm.TotalFrames(); id++ {
			f := FrameID(id)
			if pm.frames[id].refcnt <= 0 {
				continue
			}
			if pm.IsKSM(f) {
				ksm++
			}
			if pm.frames[id].desc.kind == descZero {
				zero++
			}
		}
		return
	}
	check := func(step string) {
		t.Helper()
		ksm, zero := recount()
		if pm.KSMFrames() != ksm || pm.ZeroFrames() != zero {
			t.Fatalf("%s: gauges ksm=%d zero=%d, recount ksm=%d zero=%d",
				step, pm.KSMFrames(), pm.ZeroFrames(), ksm, zero)
		}
	}

	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	c, _ := pm.Alloc()
	check("alloc x3 (all lazily zero)")

	pm.Write(a, 0, []byte{1, 2, 3})
	check("write materializes a")
	pm.Write(b, 0, []byte{0, 0}) // zero write keeps b lazy
	check("zero write keeps b lazy")
	pm.FillFrame(b, Seed(7))
	check("fill materializes b")
	pm.ZeroFrame(b)
	check("zero-frame returns b to lazy")
	pm.ZeroFrame(b) // already lazy: no double count
	check("double zero-frame")

	pm.CopyFrame(c, a)
	check("copy materialized a into c")
	pm.CopyFrame(c, b)
	check("copy lazy b back into c")

	pm.SetKSM(a, true)
	pm.SetKSM(a, true) // idempotent
	check("mark a KSM")
	pm.SetKSM(a, false)
	pm.SetKSM(a, false)
	check("unmark a KSM")

	pm.SetKSM(a, true)
	pm.IncRef(a)
	pm.DecRef(a)
	check("shared KSM frame drops one ref")
	pm.DecRef(a)
	check("free KSM frame clears gauge")
	pm.DecRef(b)
	pm.DecRef(c)
	check("free remaining")
	if pm.KSMFrames() != 0 || pm.ZeroFrames() != 0 {
		t.Fatalf("gauges not zero after freeing all: ksm=%d zero=%d", pm.KSMFrames(), pm.ZeroFrames())
	}
}

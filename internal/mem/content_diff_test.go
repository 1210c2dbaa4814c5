package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file is the content-store differential test: a naive reference model
// that stores one materialized byte array per live frame (exactly the old
// PhysMem representation) runs the same random operation stream as the real
// pool, and every observable — Bytes, Equal, Compare, Checksum, IsZero —
// must agree at every step. Snapshot/Restore/Release handles ride along so
// the swap-store aliasing path is exercised too, and a blob census checks
// that every literal blob's refcount equals the number of frame descriptors
// and live handles pointing at it, and that the recycled-buffer list is
// invisible: it shares no buffer with a live blob and is not counted.

type diffSnap struct {
	c    PageContent
	data []byte // reference copy of the snapshotted content
}

type diffModel struct {
	pm    *PhysMem
	pages map[FrameID][]byte // reference content per live frame
	refs  map[FrameID]int
	snaps []diffSnap
	// materialize adds the scanner index's Materialize to the op mix; the
	// streams pinned without it keep their values.
	materialize bool
	// peakBlobs is the most blobs seen live at once, which bounds how many
	// page buffers the store may hold, recycled ones included.
	peakBlobs int
}

func newDiffModel(frames int, materialize bool) *diffModel {
	return &diffModel{
		pm:          NewPhysMem(int64(frames)*DefaultPageSize, DefaultPageSize),
		pages:       make(map[FrameID][]byte),
		refs:        make(map[FrameID]int),
		materialize: materialize,
	}
}

// ids lists the live frames in ascending order, so the op stream and the
// checks are independent of map iteration order and a failing (seed, steps)
// pair replays exactly.
func (m *diffModel) ids() []FrameID {
	ids := make([]FrameID, 0, len(m.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m *diffModel) pick(r *rand.Rand) (FrameID, bool) {
	if len(m.pages) == 0 {
		return 0, false
	}
	ids := m.ids()
	return ids[r.Intn(len(ids))], true
}

func (m *diffModel) notePeak() {
	m.peakBlobs = max(m.peakBlobs, m.pm.cs.blobs)
}

// step applies one random operation to both the pool and the model.
func (m *diffModel) step(t testing.TB, r *rand.Rand) {
	defer m.notePeak()
	ops := 12
	if m.materialize {
		ops++
	}
	switch r.Intn(ops) {
	case 0, 1: // alloc
		id, err := m.pm.Alloc()
		if err != nil {
			return
		}
		m.pages[id] = make([]byte, DefaultPageSize)
		m.refs[id] = 1
	case 2: // incref / decref
		id, ok := m.pick(r)
		if !ok {
			return
		}
		if r.Intn(2) == 0 {
			m.pm.IncRef(id)
			m.refs[id]++
		} else {
			m.pm.DecRef(id)
			if m.refs[id]--; m.refs[id] == 0 {
				delete(m.refs, id)
				delete(m.pages, id)
			}
		}
	case 3, 4: // write: random span, sometimes all-zero bytes
		id, ok := m.pick(r)
		if !ok {
			return
		}
		n := r.Intn(64) + 1
		off := r.Intn(DefaultPageSize - n)
		data := make([]byte, n)
		if r.Intn(4) != 0 {
			r.Read(data)
		}
		m.pm.Write(id, off, data)
		copy(m.pages[id][off:], data)
	case 5: // fill, mostly from a small seed pool that forces cross-frame sharing
		id, ok := m.pick(r)
		if !ok {
			return
		}
		seed := Seed(r.Intn(4) + 1)
		if r.Intn(4) == 0 {
			seed = Seed(r.Int63()) // one no other frame holds
		}
		m.pm.FillFrame(id, seed)
		Fill(m.pages[id], seed)
	case 6: // zero
		id, ok := m.pick(r)
		if !ok {
			return
		}
		m.pm.ZeroFrame(id)
		for i := range m.pages[id] {
			m.pages[id][i] = 0
		}
	case 7: // copy one live frame onto another
		src, ok := m.pick(r)
		if !ok {
			return
		}
		dst, _ := m.pick(r)
		m.pm.CopyFrame(dst, src)
		copy(m.pages[dst], m.pages[src])
	case 8: // snapshot a frame's content into a detached handle
		id, ok := m.pick(r)
		if !ok {
			return
		}
		data := make([]byte, DefaultPageSize)
		copy(data, m.pages[id])
		m.snaps = append(m.snaps, diffSnap{c: m.pm.Snapshot(id), data: data})
	case 9: // consume a handle: restore into a live frame, or release
		if len(m.snaps) == 0 {
			return
		}
		i := r.Intn(len(m.snaps))
		s := m.snaps[i]
		m.snaps = append(m.snaps[:i], m.snaps[i+1:]...)
		if id, ok := m.pick(r); ok && r.Intn(2) == 0 {
			m.pm.Restore(id, s.c)
			copy(m.pages[id], s.data)
		} else {
			m.pm.Release(s.c)
		}
	case 10: // a write to a zero page that lands on a recycled, dirty buffer
		id, ok := m.pick(r)
		if !ok {
			return
		}
		junk := make([]byte, DefaultPageSize)
		for i := range junk {
			junk[i] = 0xff
		}
		m.pm.Write(id, 0, junk) // the frame now solely owns a private blob
		m.notePeak()
		m.pm.ZeroFrame(id) // which dies here, leaving its buffer to reuse
		pooled := len(m.pm.cs.freeBufs)
		n := r.Intn(64) + 1
		off := r.Intn(DefaultPageSize - n)
		data := bytes.Repeat([]byte{byte(r.Intn(255) + 1)}, n)
		m.pm.Write(id, off, data)
		clear(m.pages[id])
		copy(m.pages[id][off:], data)
		if pooled == 0 || len(m.pm.cs.freeBufs) != pooled-1 {
			t.Fatalf("zero-page write took no recycled buffer (%d pooled before, %d after)", pooled, len(m.pm.cs.freeBufs))
		}
		if !bytes.Equal(m.pm.Bytes(id), m.pages[id]) {
			t.Fatalf("frame %d: stale bytes of a recycled buffer show outside [%d,%d)", id, off, off+n)
		}
	case 11: // ask seeded frames for checksum, zeroness and equality, bytes unread
		m.peekSeeded(t)
	case 12: // intern a frame's content as the scanner's index does, bytes unread
		if id, ok := m.pick(r); ok {
			m.pm.Materialize(id)
		}
	}
}

// checkSum checks a frame's Checksum and IsZero against the model.
func (m *diffModel) checkSum(t testing.TB, id FrameID) {
	t.Helper()
	want := m.pages[id]
	if got, wantSum := m.pm.Checksum(id), ChecksumBytes(want); got != wantSum {
		t.Fatalf("frame %d: Checksum %#x, model %#x", id, got, wantSum)
	}
	wantZero := !slices.ContainsFunc(want, func(b byte) bool { return b != 0 })
	if m.pm.IsZero(id) != wantZero {
		t.Fatalf("frame %d: IsZero %v, model %v", id, m.pm.IsZero(id), wantZero)
	}
}

// peekSeeded checks Checksum, IsZero and Equal on every frame still holding a
// seeded descriptor or a deferred blob, before anything reads its bytes: a
// checksum remembered across FillFrame, CopyFrame or Restore shows here,
// where verify's Bytes pass would first replace the descriptor with a blob
// or generate the blob's page.
func (m *diffModel) peekSeeded(t testing.TB) {
	t.Helper()
	ids := m.ids()
	for _, a := range ids {
		if d := m.pm.frames[a].desc; d.kind != descSeeded && (d.kind != descLiteral || !d.blob.deferred()) {
			continue
		}
		m.checkSum(t, a)
		for _, b := range ids {
			if got, want := m.pm.Equal(a, b), bytes.Equal(m.pages[a], m.pages[b]); got != want {
				t.Fatalf("seeded frame %d: Equal(%d,%d)=%v, model %v", a, a, b, got, want)
			}
		}
	}
}

// verify checks every observable of every live frame against the model, and
// pairwise Equal/Compare over every pair of frames.
func (m *diffModel) verify(t *testing.T) {
	t.Helper()
	pm := m.pm
	m.peekSeeded(t)
	ids := m.ids()
	for _, id := range ids {
		if !bytes.Equal(pm.Bytes(id), m.pages[id]) {
			t.Fatalf("frame %d: Bytes diverged from model", id)
		}
		m.checkSum(t, id)
	}
	for i, a := range ids {
		for _, b := range ids[i:] {
			wantEq := bytes.Equal(m.pages[a], m.pages[b])
			if pm.Equal(a, b) != wantEq {
				t.Fatalf("Equal(%d,%d)=%v, model %v", a, b, pm.Equal(a, b), wantEq)
			}
			if got, want := pm.Compare(a, b), bytes.Compare(m.pages[a], m.pages[b]); got != want {
				t.Fatalf("Compare(%d,%d)=%d, model %d", a, b, got, want)
			}
		}
	}
	m.checkBlobs(t)
}

// checkBlobs censuses every literal blob reachable from frame descriptors
// and live handles and compares refcounts and store gauges.
func (m *diffModel) checkBlobs(t *testing.T) {
	t.Helper()
	m.notePeak() // verify's own reads materialize seeded frames
	want := make(map[*blob]int32)
	for i := range m.pm.frames {
		f := &m.pm.frames[i]
		if f.refcnt > 0 && f.desc.kind == descLiteral {
			want[f.desc.blob]++
		}
	}
	for _, s := range m.snaps {
		if s.c.d.kind == descLiteral {
			want[s.c.d.blob]++
		}
	}
	interned := 0
	for b, n := range want {
		if b.refs != n {
			t.Fatalf("blob %p: refs %d, census %d", b, b.refs, n)
		}
		if b.interned {
			interned++
		}
	}
	cs := m.pm.cs
	if cs.blobs != len(want) || cs.internedBlobs != interned {
		t.Fatalf("store gauges blobs=%d interned=%d, census blobs=%d interned=%d",
			cs.blobs, cs.internedBlobs, len(want), interned)
	}
	if st := m.pm.ContentStats(); st.Blobs != len(want) || st.BlobBytes != int64(len(want))*DefaultPageSize {
		t.Fatalf("ContentStats counts %d blobs / %d bytes, census %d live blobs", st.Blobs, st.BlobBytes, len(want))
	}
	live := make(map[*byte]bool, len(want))
	for b := range want {
		switch {
		case !b.deferred():
			live[&b.data[0]] = true
		case !b.interned || !b.seeded:
			t.Fatalf("deferred blob %p is not an interned seeded blob (interned %v, seeded %v)", b, b.interned, b.seeded)
		}
	}
	// One over: a copy-on-write holds its source and its copy at once.
	if len(cs.freeBufs)+len(live) > m.peakBlobs+1 {
		t.Fatalf("%d recycled + %d live buffers exceed the peak of %d live blobs", len(cs.freeBufs), len(live), m.peakBlobs)
	}
	for _, buf := range cs.freeBufs {
		if len(buf) != DefaultPageSize || live[&buf[0]] {
			t.Fatalf("recycled buffer (len %d) is still a live blob's data", len(buf))
		}
	}
	chained := make(map[*blob]bool, interned)
	for sum, head := range cs.table {
		for b := head; b != nil; b = b.next {
			content := b.data
			if b.deferred() {
				content = FillBytes(DefaultPageSize, b.seed)
			}
			switch {
			case chained[b]:
				t.Fatalf("blob %p is chained twice", b)
			case !b.interned || want[b] == 0:
				t.Fatalf("chained blob %p is not a live interned blob (interned %v, census %d)", b, b.interned, want[b])
			case !b.sumValid || b.sum != sum || ChecksumBytes(content) != sum:
				t.Fatalf("blob %p chained under %#x holds content summing to %#x", b, sum, ChecksumBytes(content))
			}
			chained[b] = true
		}
	}
	if len(chained) != interned {
		t.Fatalf("content table holds %d blobs, census %d interned", len(chained), interned)
	}
}

// drain releases every reference and handle; the pool must come back to
// fresh with an empty content store.
func (m *diffModel) drain(t *testing.T) {
	t.Helper()
	for _, s := range m.snaps {
		m.pm.Release(s.c)
	}
	m.snaps = nil
	for id, n := range m.refs {
		for i := 0; i < n; i++ {
			m.pm.DecRef(id)
		}
	}
	m.refs = make(map[FrameID]int)
	m.pages = make(map[FrameID][]byte)
	if m.pm.FramesInUse() != 0 {
		t.Fatalf("drained pool still holds %d frames", m.pm.FramesInUse())
	}
	cs := m.pm.cs
	if st := m.pm.ContentStats(); cs.blobs != 0 || cs.internedBlobs != 0 || st.BlobBytes != 0 || len(cs.table) != 0 {
		t.Fatalf("drained store not empty: blobs=%d interned=%d bytes=%d table=%d",
			cs.blobs, cs.internedBlobs, st.BlobBytes, len(cs.table))
	}
}

// runDiff drives a frames-wide model through steps random operations from
// seed, verifying every verifyEvery steps and once at the end; materialize
// adds Materialize to the op mix.
func runDiff(t *testing.T, seed int64, frames, steps, verifyEvery int, materialize bool) *diffModel {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := newDiffModel(frames, materialize)
	for i := 0; i < steps; i++ {
		m.step(t, r)
		if i%verifyEvery == 0 {
			m.verify(t)
		}
	}
	m.verify(t)
	return m
}

// TestContentStoreDifferential is the satellite property test: long random
// operation sequences, model-checked throughout.
func TestContentStoreDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runDiff(t, seed, 64, 3000, 200, false).drain(t)
		runDiff(t, seed, 64, 3000, 200, true).drain(t)
	}
}

// TestContentStatsPinned holds the store's counters for three fixed op
// streams at exact values: a change to how the store indexes or caches
// content must leave what it counts — blobs made and reused, seeds asked,
// pages materialized — where it was. The third stream interns pages without
// reading them, as the scanner's index does.
func TestContentStatsPinned(t *testing.T) {
	for _, c := range []struct {
		seed         int64
		steps        int
		materialize  bool
		want         ContentStats
		materialized uint64
	}{
		{5, 3000, false, ContentStats{Blobs: 40, BlobBytes: 40 * DefaultPageSize, InternedBlobs: 20,
			SeedSums: 65, InternHits: 146, COWCopies: 230}, 750},
		{13, 6000, false, ContentStats{Blobs: 55, BlobBytes: 55 * DefaultPageSize, InternedBlobs: 24,
			SeedSums: 111, InternHits: 324, COWCopies: 492}, 1508},
		{21, 6000, true, ContentStats{Blobs: 52, BlobBytes: 52 * DefaultPageSize, InternedBlobs: 27,
			SeedSums: 102, InternHits: 260, COWCopies: 499}, 1424},
	} {
		m := runDiff(t, c.seed, 64, c.steps, 100, c.materialize)
		if got := m.pm.ContentStats(); got != c.want {
			t.Errorf("seed %d, %d steps, materialize %v: ContentStats %+v, want %+v", c.seed, c.steps, c.materialize, got, c.want)
		}
		if got := m.pm.Stats().Materialized; got != c.materialized {
			t.Errorf("seed %d, %d steps, materialize %v: Materialized %d, want %d", c.seed, c.steps, c.materialize, got, c.materialized)
		}
		m.drain(t)
	}
}

// FuzzContentStoreDifferential replays fuzzer-chosen operation streams
// through the same model; `go test` runs the seed corpus, `go test -fuzz`
// explores further.
func FuzzContentStoreDifferential(f *testing.F) {
	f.Add(int64(42), 500)
	f.Add(int64(7), 2000)
	f.Fuzz(func(t *testing.T, seed int64, steps int) {
		if steps < 0 || steps > 4000 {
			return
		}
		runDiff(t, seed, 32, steps, 500, true).drain(t)
	})
}

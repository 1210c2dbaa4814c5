package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// Satellite coverage for descriptor export/import across pools: every
// content kind must round-trip byte-exactly, classify correctly, and
// conserve references so that tearing the destination pool back down
// releases every blob the imports created.

func allocFrame(t *testing.T, pm *PhysMem) FrameID {
	t.Helper()
	id, err := pm.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	return id
}

// TestExportImportKinds walks one page of each kind across two pools and
// checks bytes, classification, and checksum against the naive model.
func TestExportImportKinds(t *testing.T) {
	src := NewPhysMem(1<<20, DefaultPageSize)
	dst := NewPhysMem(1<<20, DefaultPageSize)

	literal := bytes.Repeat([]byte("JavaSharedClassCache!"), 200)[:DefaultPageSize]
	unique := FillBytes(DefaultPageSize, HashString("private-literal"))

	// Source pages: untouched zero, seeded fill, a literal the destination
	// already holds, and a literal it has never seen.
	zeroF := allocFrame(t, src)
	seedF := allocFrame(t, src)
	src.FillFrame(seedF, HashString("kernel-text"))
	dupF := allocFrame(t, src)
	src.Write(dupF, 0, literal)
	copyF := allocFrame(t, src)
	src.Write(copyF, 0, unique)

	// Pre-seed the destination with the duplicate content via its own
	// write + snapshot (the path swap dedup uses to intern literals).
	preF := allocFrame(t, dst)
	dst.Write(preF, 0, literal)
	dst.Release(dst.Snapshot(preF))

	cases := []struct {
		name  string
		frame FrameID
		class ImportClass
		want  []byte
	}{
		{"zero", zeroF, ImportZero, make([]byte, DefaultPageSize)},
		{"seed", seedF, ImportSeed, FillBytes(DefaultPageSize, HashString("kernel-text"))},
		{"dup", dupF, ImportDup, literal},
		{"copy", copyF, ImportCopy, unique},
	}
	for _, tc := range cases {
		e := src.ExportFrame(tc.frame)
		if e.Sum != ChecksumBytes(tc.want) {
			t.Fatalf("%s: exported Sum %#x != content checksum %#x", tc.name, e.Sum, ChecksumBytes(tc.want))
		}
		into := allocFrame(t, dst)
		// Dirty the target first so the import must actually overwrite.
		dst.Write(into, 0, []byte("stale"))
		class := dst.ImportPage(into, e)
		if class != tc.class {
			t.Fatalf("%s: ImportPage class = %v, want %v", tc.name, class, tc.class)
		}
		if !bytes.Equal(dst.Bytes(into), tc.want) {
			t.Fatalf("%s: imported bytes differ from naive copy", tc.name)
		}
		if dst.Checksum(into) != e.Sum {
			t.Fatalf("%s: destination checksum %#x != wire checksum %#x", tc.name, dst.Checksum(into), e.Sum)
		}
	}
	if dst.ZeroFrames() < 1 {
		t.Fatal("zero import did not maintain the zero-frame gauge")
	}
}

// TestImportPageRejectsSharedFrames documents the contract: imports land
// only on privately mapped frames.
func TestImportPageRejectsSharedFrames(t *testing.T) {
	src := NewPhysMem(1<<20, DefaultPageSize)
	dst := NewPhysMem(1<<20, DefaultPageSize)
	e := src.ExportFrame(allocFrame(t, src))

	shared := allocFrame(t, dst)
	dst.IncRef(shared)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ImportPage into a shared frame did not panic")
			}
		}()
		dst.ImportPage(shared, e)
	}()
	dst.DecRef(shared)

	ksmF := allocFrame(t, dst)
	dst.SetKSM(ksmF, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ImportPage into a KSM frame did not panic")
			}
		}()
		dst.ImportPage(ksmF, e)
	}()
}

// TestImportRejectsShortBlob: a blob that is not one page long must not reach
// the content table, through either entry point, and must leave the pool as it
// found it — interned, it fails a later in-range Write and, once dead, its
// buffer tops the recycling list for good.
func TestImportRejectsShortBlob(t *testing.T) {
	pm := NewPhysMem(1<<20, DefaultPageSize)
	id := allocFrame(t, pm)
	data := FillBytes(DefaultPageSize/2, 5)
	short := ExportedPage{Kind: ExportBlob, Sum: ChecksumBytes(data), Data: data}
	for name, imp := range map[string]func(){
		"ImportPage":    func() { pm.ImportPage(id, short) },
		"ImportContent": func() { pm.ImportContent(short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of a half-page blob did not panic", name)
				}
			}()
			imp()
		}()
	}
	if st := pm.ContentStats(); st.Blobs != 0 || st.InternedBlobs != 0 || !pm.IsZero(id) {
		t.Fatalf("rejected imports left content behind: %+v", st)
	}
	pm.Write(id, DefaultPageSize-4, []byte{1, 2, 3, 4})
}

// TestExportImportContentRoundTrip moves detached PageContent handles —
// the swapped-page path — between pools.
func TestExportImportContentRoundTrip(t *testing.T) {
	src := NewPhysMem(1<<20, DefaultPageSize)
	dst := NewPhysMem(1<<20, DefaultPageSize)

	payload := FillBytes(DefaultPageSize, HashString("swapped-heap-page"))
	f := allocFrame(t, src)
	src.Write(f, 0, payload)
	snap := src.Snapshot(f)

	c, class := dst.ImportContent(src.ExportContent(snap))
	if class != ImportCopy {
		t.Fatalf("first import of unseen content classified %v, want copy", class)
	}
	src.Release(snap)

	into := allocFrame(t, dst)
	dst.Restore(into, c)
	if !bytes.Equal(dst.Bytes(into), payload) {
		t.Fatal("restored content differs from the source page")
	}

	// A second import of the same content must attach, not copy.
	f2 := allocFrame(t, src)
	src.Write(f2, 0, payload)
	snap2 := src.Snapshot(f2)
	c2, class2 := dst.ImportContent(src.ExportContent(snap2))
	if class2 != ImportDup {
		t.Fatalf("re-import of known content classified %v, want dup", class2)
	}
	src.Release(snap2)
	dst.Release(c2)
}

// TestExportImportProperty is the satellite property test: a randomized
// page population exported from one pool and imported into another must
// match a naive byte-copy model page-for-page, classify dup/copy by
// first-sight order, and conserve references — freeing everything in the
// destination returns its content store to empty.
func TestExportImportProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewPhysMem(4<<20, DefaultPageSize)
	dst := NewPhysMem(4<<20, DefaultPageSize)

	seeds := []Seed{HashString("text"), HashString("rodata"), HashString("cds")}
	palette := make([][]byte, 4)
	for i := range palette {
		palette[i] = FillBytes(DefaultPageSize, Combine(HashString("palette"), Seed(i)))
	}

	const pages = 200
	type page struct {
		frame FrameID
		want  []byte // the naive model: the bytes a memcpy would move
		class ImportClass
	}
	model := make([]page, 0, pages)
	seen := map[uint64]bool{} // content already present in dst
	for i := 0; i < pages; i++ {
		f := allocFrame(t, src)
		p := page{frame: f}
		switch rng.Intn(4) {
		case 0: // zero
			p.want = make([]byte, DefaultPageSize)
			p.class = ImportZero
		case 1: // seeded
			s := seeds[rng.Intn(len(seeds))]
			src.FillFrame(f, s)
			p.want = FillBytes(DefaultPageSize, s)
			p.class = ImportSeed
		case 2: // palette literal: dup after first sight
			data := palette[rng.Intn(len(palette))]
			src.Write(f, 0, data)
			p.want = data
			sum := ChecksumBytes(data)
			if seen[sum] {
				p.class = ImportDup
			} else {
				p.class = ImportCopy
				seen[sum] = true
			}
		default: // unique literal: always a copy
			data := FillBytes(DefaultPageSize, Combine(HashString("unique"), Seed(i)))
			src.Write(f, 0, data)
			p.want = data
			p.class = ImportCopy
		}
		model = append(model, p)
	}

	srcBlobs := src.ContentStats().Blobs
	imported := make([]FrameID, 0, pages)
	var copies int
	for _, p := range model {
		e := src.ExportFrame(p.frame)
		into := allocFrame(t, dst)
		class := dst.ImportPage(into, e)
		if class != p.class {
			t.Fatalf("page %d: class %v, want %v", p.frame, class, p.class)
		}
		if class == ImportCopy {
			copies++
		}
		imported = append(imported, into)
	}
	// Export is read-only on the source store: no blobs appeared or died.
	if got := src.ContentStats().Blobs; got != srcBlobs {
		t.Fatalf("export changed source blob count: %d -> %d", srcBlobs, got)
	}
	// Only first-sight literals allocated destination buffers. (Checked
	// before reading any destination frame: reads materialize seeded
	// descriptors into blobs.)
	if got := dst.ContentStats().Blobs; got != copies {
		t.Fatalf("destination holds %d blobs after import, want %d (one per ImportCopy)", got, copies)
	}
	for i, p := range model {
		if !bytes.Equal(dst.Bytes(imported[i]), p.want) {
			t.Fatalf("page %d: imported bytes diverge from the byte-copy model", p.frame)
		}
	}
	// Refcount conservation: dropping every imported frame drains the store.
	for _, id := range imported {
		dst.DecRef(id)
	}
	if st := dst.ContentStats(); st.Blobs != 0 || st.BlobBytes != 0 {
		t.Fatalf("destination store not empty after teardown: %+v", st)
	}
}

package mem

import "fmt"

// This file is the cross-pool face of the content store: descriptor
// export/import for live migration. A page leaves its pool as an
// ExportedPage — the same zero/seed/blob taxonomy desc uses internally,
// plus the content checksum — and enters another pool by descriptor
// identity: zero and seeded pages reconstruct from the descriptor alone,
// and literal pages attach to an existing interned blob when the
// destination already holds byte-identical content. Only a literal page
// the destination has never seen costs a byte copy, which is exactly the
// distinction a content-addressed migration wire protocol needs.
//
// Nothing here weakens content identity: imports go through the same
// checksum-then-byte-verify intern path as every other blob, so a
// checksum collision costs a memcmp, never a corrupted page.

// ExportKind enumerates the wire descriptor kinds. They mirror descKind
// but are a separate public type: the wire format is API, the frame
// representation is not.
type ExportKind uint8

const (
	// ExportZero is the canonical all-zero page.
	ExportZero ExportKind = iota
	// ExportSeed is a deterministic Fill(seed) page — content both sides
	// can generate, the cross-host analogue of the paper's copy-the-
	// CDS-archive trick (the receiver already owns the base image).
	ExportSeed
	// ExportBlob is literal bytes identified by checksum.
	ExportBlob
)

func (k ExportKind) String() string {
	switch k {
	case ExportZero:
		return "zero"
	case ExportSeed:
		return "seed"
	default:
		return "blob"
	}
}

// ExportedPage is one page's content descriptor in wire form. Sum is
// filled for every kind (the zero-page sum, the seed's cached sum, or the
// blob's cached sum), so receivers can index content without generating
// bytes. Data is only set for ExportBlob and aliases the source pool's
// buffer: it is read-only and valid until the source pool next mutates,
// which makes a synchronous export→import hand-off free of copies.
type ExportedPage struct {
	Kind ExportKind
	Seed Seed   // ExportSeed: the fill seed
	Sum  uint64 // content checksum, all kinds
	Data []byte // ExportBlob: the literal bytes (borrowed, do not mutate)
}

// exportDesc converts an internal descriptor to wire form. A literal blob
// that the store knows was generated from a fill seed (reads materialize
// seeded pages into interned blobs, but the provenance sticks) exports as
// its seed: the receiver regenerates the bytes, so the page costs a
// descriptor instead of a copy even after materialization.
func (pm *PhysMem) exportDesc(d desc) ExportedPage {
	switch d.kind {
	case descZero:
		return ExportedPage{Kind: ExportZero, Sum: pm.zeroSum}
	case descSeeded:
		return ExportedPage{Kind: ExportSeed, Seed: d.seed, Sum: pm.seededSum(&d)} // d is a copy
	default:
		if d.blob.seeded {
			return ExportedPage{Kind: ExportSeed, Seed: d.blob.seed, Sum: d.blob.checksum()}
		}
		return ExportedPage{Kind: ExportBlob, Sum: d.blob.checksum(), Data: d.blob.data}
	}
}

// ExportFrame captures a live frame's content as a wire descriptor
// without materializing, copying, or touching access state.
func (pm *PhysMem) ExportFrame(id FrameID) ExportedPage {
	return pm.exportDesc(pm.frameAt(id).desc)
}

// ExportContent captures a detached content handle (a swap slot's
// snapshot) as a wire descriptor. The handle keeps its reference; the
// export merely borrows.
func (pm *PhysMem) ExportContent(c PageContent) ExportedPage {
	return pm.exportDesc(c.d)
}

// ImportClass reports how an import was satisfied — the signal a
// migration engine turns into bytes-on-wire accounting.
type ImportClass uint8

const (
	// ImportZero: the descriptor alone reconstructs the page (all zero).
	ImportZero ImportClass = iota
	// ImportSeed: the descriptor alone reconstructs the page (seeded fill).
	ImportSeed
	// ImportDup: the destination pool already held byte-identical content;
	// the page attached to the existing interned blob.
	ImportDup
	// ImportCopy: the destination had never seen this content, so the
	// literal bytes had to travel and be stored.
	ImportCopy
)

func (c ImportClass) String() string {
	switch c {
	case ImportZero:
		return "zero"
	case ImportSeed:
		return "seed"
	case ImportDup:
		return "dup"
	default:
		return "copy"
	}
}

// importBlob resolves an ExportBlob descriptor against this pool's
// content table: a verified match attaches (ImportDup), anything else is
// copied in and interned (ImportCopy). The returned blob carries one new
// reference either way. A blob that is not exactly one page is a caller bug
// and panics: interned, it would fail a later in-range Write and its buffer
// would block the recycling list.
func (pm *PhysMem) importBlob(e ExportedPage) (*blob, ImportClass) {
	if len(e.Data) != pm.pageSize {
		panic(fmt.Sprintf("mem: import of a %d-byte blob into a pool of %d-byte pages", len(e.Data), pm.pageSize))
	}
	cs := pm.cs
	if b := cs.lookupInterned(e.Data, e.Sum); b != nil {
		b.refs++
		cs.internHits++
		return b, ImportDup
	}
	buf := cs.pageBuf(pm.pageSize, false)
	copy(buf, e.Data)
	return cs.addInterned(buf, e.Sum), ImportCopy
}

// ImportPage overwrites a frame with an exported page's content, like a
// whole-page write from the wire. The frame must be privately mapped:
// importing into a KSM stable page or a frame shared by several mappings
// is a caller bug (break COW first) and panics.
func (pm *PhysMem) ImportPage(id FrameID, e ExportedPage) ImportClass {
	f := pm.frameAt(id)
	if f.ksm {
		panic(fmt.Sprintf("mem: ImportPage into KSM stable frame %d", id))
	}
	if f.refcnt > 1 {
		panic(fmt.Sprintf("mem: ImportPage into shared frame %d (refcount %d)", id, f.refcnt))
	}
	wasZero := f.desc.kind == descZero
	var nd desc
	class := ImportZero
	switch e.Kind {
	case ExportZero:
		nd = desc{}
	case ExportSeed:
		nd = desc{kind: descSeeded, seed: e.Seed}
		class = ImportSeed
	default:
		var b *blob
		b, class = pm.importBlob(e)
		nd = desc{kind: descLiteral, blob: b}
	}
	pm.cs.release(f.desc)
	f.desc = nd
	if nowZero := nd.kind == descZero; wasZero && !nowZero {
		pm.zeroFrames--
	} else if !wasZero && nowZero {
		pm.zeroFrames++
	}
	return class
}

// ImportContent materializes an exported page as a detached content
// handle in this pool — the frameless counterpart of ImportPage, used to
// move swapped-out pages between pools. Like Snapshot's result, the
// handle must be returned exactly once through Restore or Release.
func (pm *PhysMem) ImportContent(e ExportedPage) (PageContent, ImportClass) {
	switch e.Kind {
	case ExportZero:
		return PageContent{}, ImportZero
	case ExportSeed:
		return PageContent{d: desc{kind: descSeeded, seed: e.Seed}}, ImportSeed
	default:
		b, class := pm.importBlob(e)
		return PageContent{d: desc{kind: descLiteral, blob: b}}, class
	}
}

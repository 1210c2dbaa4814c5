package mem

import "bytes"

// This file is the content-addressed page store behind PhysMem. A frame no
// longer owns a private 4 KiB byte array; it holds a small content
// descriptor that says how to produce the bytes:
//
//   - Zero: the canonical all-zero page (no storage at all);
//   - Seeded: a deterministic Fill(seed) stream, materializable on demand
//     (no storage until somebody actually reads the bytes);
//   - Literal: a reference-counted blob of real bytes.
//
// Literal blobs come in two flavours. Interned blobs live in a
// checksum-keyed content table, are immutable, and are shared by every
// frame, swap slot, and snapshot whose content is byte-identical — the
// simulator's own memory is deduplicated the same way the modelled KSM
// deduplicates guest frames. Private blobs are the product of Write:
// freshly mutated content that is expected to keep changing, held outside
// the table. A private blob can still be aliased (CopyFrame, swap
// snapshots); mutation through any alias is copy-on-write once more than
// one reference exists.
//
// All of this is invisible above the PhysMem API: Bytes materializes on
// read, Equal/Compare/Checksum answer from descriptors and cached checksums
// whenever possible and fall back to byte verification on checksum
// collision, so every observable byte, comparison, and merge decision is
// identical to the old one-array-per-frame representation.

// descKind enumerates the content descriptor kinds.
type descKind uint8

const (
	descZero descKind = iota
	descSeeded
	descLiteral
)

// desc is one frame's content descriptor. The zero value is the zero page.
// Flags first: it packs into 32 bytes on 64-bit targets (TestFramePacking).
type desc struct {
	kind descKind
	// summed marks sum as seed's checksum (descSeeded only), a memo that
	// seededSum sets once seedSums holds the seed. A new seed always comes
	// with a fresh descriptor, so the memo cannot outlive its seed.
	summed bool
	seed   Seed  // descSeeded: Fill(page, seed) produces the bytes
	blob   *blob // descLiteral
	sum    uint64
}

// blob is a reference-counted page buffer. refs counts every descriptor
// holding it: frame descs, swap-slot snapshots, and any other PageContent
// handle. Interned blobs are immutable and chained into the content table
// under their checksum; private blobs are mutable only while exactly one
// reference exists.
type blob struct {
	data []byte
	refs int32
	// sum is the content checksum, valid while sumValid: set by setSum and
	// dropped by an in-place Write.
	sum      uint64
	sumValid bool
	interned bool
	// seeded records that the blob was first materialized from seed: export
	// sends the seed instead of the bytes, and internSeeded attaches later
	// frames with that seed without generating or comparing bytes.
	seeded bool
	seed   Seed
	// next chains interned blobs whose checksums collide.
	next *blob
}

// checksum returns the blob's content checksum, computing and caching it on
// first use — once per content, not per frame per scan pass.
func (b *blob) checksum() uint64 {
	if !b.sumValid {
		b.setSum(ChecksumBytes(b.data))
	}
	return b.sum
}

// setSum caches sum, which must be the checksum of the blob's current bytes.
func (b *blob) setSum(sum uint64) { b.sum, b.sumValid = sum, true }

// contentStore holds the pool's interned blobs and per-seed checksum cache.
// It is per-PhysMem: concurrently running clusters share no mutable state.
type contentStore struct {
	// table chains interned blobs through blob.next by content checksum. It
	// holds each content once and verifies every match byte-for-byte, so a
	// collision costs a memcmp, never a wrong share; chain order is unseen.
	table map[uint64]*blob
	// seedSums caches the page checksum of each Seed ever asked for. It never
	// forgets: its size is ContentStats.SeedSums, which the benchmark's
	// golden digests cover.
	seedSums map[Seed]uint64

	// freeBufs holds the page buffers of dead blobs for the next blob to
	// reuse (pageBuf). A buffer is allocated only when this list is empty,
	// so the list and the live blobs together never hold more buffers than
	// the peak number of live blobs plus one (a copy-on-write has its source
	// and its copy at once).
	freeBufs [][]byte

	blobs         int   // live blobs, interned + private
	internedBlobs int   // blobs currently in the table
	blobBytes     int64 // bytes held by live blobs
	internHits    uint64
	cowCopies     uint64
}

func newContentStore() *contentStore {
	return &contentStore{
		table:    make(map[uint64]*blob),
		seedSums: make(map[Seed]uint64),
	}
}

// pageBuf returns an n-byte buffer for a new blob, recycled from a dead one
// when possible. A recycled buffer holds stale bytes; zeroed asks for them
// to be cleared.
func (cs *contentStore) pageBuf(n int, zeroed bool) []byte {
	k := len(cs.freeBufs) - 1
	if k < 0 || len(cs.freeBufs[k]) != n {
		return make([]byte, n)
	}
	buf := cs.freeBufs[k]
	cs.freeBufs = cs.freeBufs[:k]
	if zeroed {
		clear(buf)
	}
	return buf
}

// newBlob registers a fresh private buffer with the store's accounting.
func (cs *contentStore) newBlob(data []byte) *blob {
	cs.blobs++
	cs.blobBytes += int64(len(data))
	return &blob{data: data, refs: 1}
}

// retain takes one more reference on a descriptor's backing, if any.
func (cs *contentStore) retain(d desc) desc {
	if d.kind == descLiteral {
		d.blob.refs++
	}
	return d
}

// release drops one reference; a blob whose last reference goes away leaves
// the table (if interned) and its buffer goes to freeBufs for reuse — which
// is why slices handed out by PhysMem.Bytes are only borrowed.
func (cs *contentStore) release(d desc) {
	if d.kind != descLiteral {
		return
	}
	b := d.blob
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic("mem: content blob over-released")
	}
	cs.blobs--
	cs.blobBytes -= int64(len(b.data))
	if b.interned {
		cs.unlink(b)
	}
	cs.freeBufs = append(cs.freeBufs, b.data)
	b.data = nil
}

// internExisting registers an already-live blob in the content table
// without copying or taking a reference. Used when a frame becomes a KSM
// stable page: content the host proved shared should be discoverable by
// checksum, so imports of byte-identical pages attach instead of copying. A
// blob whose bytes already have a table entry is left alone.
func (cs *contentStore) internExisting(b *blob) {
	if b.interned {
		return
	}
	sum := b.checksum()
	if cs.lookupInterned(b.data, sum) == nil {
		cs.link(b, sum)
	}
}

// link enters b, whose checksum is sum and whose bytes the table does not
// hold yet, into the content table. The table takes no reference; a dying
// blob unlinks itself.
func (cs *contentStore) link(b *blob, sum uint64) {
	b.interned = true
	cs.internedBlobs++
	b.next = cs.table[sum]
	cs.table[sum] = b
}

// unlink takes a dying interned blob out of its checksum's chain.
func (cs *contentStore) unlink(b *blob) {
	cs.internedBlobs--
	sum := b.checksum()
	if p := cs.table[sum]; p != b {
		for p.next != b {
			p = p.next
		}
		p.next = b.next
	} else if b.next != nil {
		cs.table[sum] = b.next
	} else {
		delete(cs.table, sum)
	}
}

// lookupInterned returns the table blob byte-equal to data, if any.
func (cs *contentStore) lookupInterned(data []byte, sum uint64) *blob {
	for b := cs.table[sum]; b != nil; b = b.next {
		if bytes.Equal(b.data, data) {
			return b
		}
	}
	return nil
}

// addInterned enters buf, whose checksum is sum and whose bytes the table
// does not hold yet, as a new interned blob carrying one reference.
func (cs *contentStore) addInterned(buf []byte, sum uint64) *blob {
	b := cs.newBlob(buf)
	b.setSum(sum)
	cs.link(b, sum)
	return b
}

// ContentStats is a snapshot of the content store's occupancy, for tests,
// benchmarks, and the heap-footprint trajectory in BENCH_content.json.
type ContentStats struct {
	// Blobs is the number of live page buffers (interned + private);
	// BlobBytes is the bytes they hold — the store's whole variable-size
	// footprint, where the old representation held one page per frame.
	Blobs     int
	BlobBytes int64
	// InternedBlobs counts blobs shared through the content table.
	InternedBlobs int
	// SeedSums counts the distinct seeds whose checksum was ever asked for
	// (the per-seed cache never forgets one).
	SeedSums int
	// InternHits counts materializations and writes served by an existing
	// interned blob instead of a new buffer.
	InternHits uint64
	// COWCopies counts writes that had to copy a shared or interned blob
	// before mutating.
	COWCopies uint64
}

// ContentStats returns a snapshot of the content store's counters.
func (pm *PhysMem) ContentStats() ContentStats {
	return ContentStats{
		Blobs:         pm.cs.blobs,
		BlobBytes:     pm.cs.blobBytes,
		InternedBlobs: pm.cs.internedBlobs,
		SeedSums:      len(pm.cs.seedSums),
		InternHits:    pm.cs.internHits,
		COWCopies:     pm.cs.cowCopies,
	}
}

// PageContent is a refcounted handle on one page's content, detached from
// any frame: the swap store holds one per occupied slot, so swapping a page
// out costs a descriptor copy instead of a 4 KiB buffer copy, and slots
// holding identical content share one blob. The zero value is the zero
// page. Handles obtained from Snapshot must be returned to the pool exactly
// once, through Restore (install into a frame) or Release (discard).
type PageContent struct {
	d desc
}

// IsZero reports whether the handle is the canonical zero page. Snapshot
// canonicalizes all-zero content, so this is the swap store's same-filled
// page test.
func (c PageContent) IsZero() bool { return c.d.kind == descZero }

// Snapshot captures the frame's current content as a detached handle,
// aliasing the backing blob instead of copying bytes. All-zero content —
// lazy or materialized — canonicalizes to the zero handle, exactly matching
// the byte-level IsZero test the swap store used to run. A private literal
// blob is promoted into the content table first, so snapshots of
// byte-identical pages converge on one blob: this is what makes the swap
// store content-deduplicated for free.
func (pm *PhysMem) Snapshot(id FrameID) PageContent {
	f := pm.frameAt(id)
	if pm.isZeroFrame(f) {
		return PageContent{}
	}
	if f.desc.kind == descLiteral && !f.desc.blob.interned {
		b := f.desc.blob
		sum := b.checksum()
		if existing := pm.cs.lookupInterned(b.data, sum); existing != nil {
			// The table already holds this content: retarget the frame and
			// drop the private duplicate.
			existing.refs++
			pm.cs.internHits++
			pm.cs.release(f.desc)
			f.desc = desc{kind: descLiteral, blob: existing}
		} else {
			// Adopt the private buffer into the table in place — no copy.
			pm.cs.link(b, sum)
		}
	}
	return PageContent{d: pm.cs.retain(f.desc)}
}

// Restore installs a snapshot's content into a frame, consuming the handle.
// The frame's previous content is released.
func (pm *PhysMem) Restore(id FrameID, c PageContent) {
	f := pm.frameAt(id)
	if f.ksm {
		panic("mem: Restore into KSM stable frame")
	}
	wasZero := f.desc.kind == descZero
	pm.cs.release(f.desc)
	f.desc = c.d
	nowZero := f.desc.kind == descZero
	if wasZero && !nowZero {
		pm.zeroFrames--
	} else if !wasZero && nowZero {
		pm.zeroFrames++
	}
}

// Release discards a snapshot without installing it (a swap slot dropped
// while its page was unmapped).
func (pm *PhysMem) Release(c PageContent) { pm.cs.release(c.d) }

package mem

import (
	"bytes"
	"errors"
	"fmt"
)

// DefaultPageSize is the page size used throughout the simulator. It matches
// the 4 KiB base pages of the paper's x86 and POWER measurement platforms.
const DefaultPageSize = 4096

// HugePages is the number of base pages covered by one transparent huge
// page: 2 MiB / 4 KiB = 512, as on the paper's x86 hosts. Huge blocks are
// HugePages-aligned runs of frames allocated and mapped as one unit.
const HugePages = 512

// FrameID names a host physical page frame. NilFrame is the zero-value
// sentinel for "no frame".
type FrameID uint32

// NilFrame is an invalid frame id; page-table entries that are not present
// carry it.
const NilFrame FrameID = ^FrameID(0)

// ErrOutOfMemory is returned by Alloc when every frame is in use. The
// hypervisor turns this condition into swapping.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// frame is a single physical page. Content lives behind the desc content
// descriptor (see store.go): the zero-value desc is the all-zero page, a
// seeded desc materializes lazily on first read, and literal descs share
// refcounted blobs, so an untouched guest costs almost nothing and
// duplicate content is stored once.
type frame struct {
	desc   desc
	refcnt int32
	ksm    bool // frame is a KSM stable-tree page (write-protected, shared)
	// huge marks a frame inside an allocated huge block: one huge PTE maps
	// the whole aligned run, so the frame is never shared or freed
	// individually (SplitHugeBlock dissolves the block first).
	huge bool
	// inFree marks a frame id as live on the free stack. AllocHugeBlock
	// claims free frames without removing their stack entries, so Alloc
	// validates entries lazily against this flag.
	inFree bool
}

// PhysMem is a pool of physical page frames with reference counting.
//
// The pool is intentionally not safe for concurrent use: the simulator is
// single-threaded (see simclock) so that runs are reproducible.
type PhysMem struct {
	pageSize int
	frames   []frame
	// free is a stack of candidate frame ids. It may contain stale entries
	// for frames AllocHugeBlock claimed in place; the per-frame inFree flag
	// is authoritative and freeCount counts the frames actually free.
	free      []FrameID
	freeCount int
	inUse     int

	// blockFree tracks, per aligned HugePages block, how many of its frames
	// are free — the huge-block allocator picks the lowest fully-free block.
	// Frames past the last whole block are never huge-backed.
	blockFree  []int
	hugeBlocks int
	// blockHuge tracks, per aligned block, how many of its frames still
	// carry the huge flag. A freshly allocated block holds HugePages; FHPM
	// carve-outs (ReleaseHugeFrame) decrement it, re-absorption increments
	// it, and the block dissolves when it reaches zero.
	blockHuge []int
	// hugeFrameN counts frames with the huge flag set, pool-wide, so the
	// HugeFrames gauge stays O(1) with partially carved blocks.
	hugeFrameN int

	zero    []byte // canonical zero page for comparisons
	zeroSum uint64 // checksum of the zero page, precomputed per pool

	// cs is the pool's content store: interned literal blobs keyed by
	// checksum plus the per-seed checksum cache.
	cs *contentStore

	// Statistics.
	allocs       uint64
	frees        uint64
	materialized uint64
	// Gauges maintained at state transitions so telemetry sampling never
	// has to walk the frame array.
	ksmFrames  int // frames flagged as KSM stable pages
	zeroFrames int // in-use frames whose descriptor is the lazy zero page
}

// NewPhysMem creates a pool holding totalBytes of physical memory divided
// into pages of pageSize bytes. totalBytes is rounded down to a whole number
// of pages; at least one page is required.
func NewPhysMem(totalBytes int64, pageSize int) *PhysMem {
	if pageSize <= 0 || pageSize%8 != 0 {
		panic(fmt.Sprintf("mem: invalid page size %d", pageSize))
	}
	n := totalBytes / int64(pageSize)
	if n < 1 {
		panic(fmt.Sprintf("mem: total %d smaller than one page", totalBytes))
	}
	pm := &PhysMem{
		pageSize: pageSize,
		frames:   make([]frame, n),
		free:     make([]FrameID, 0, n),
		zero:     make([]byte, pageSize),
		cs:       newContentStore(),
	}
	// Precomputed here rather than cached in a package-level map: pools in
	// concurrently running clusters checksum zero frames without sharing any
	// mutable state.
	pm.zeroSum = ChecksumBytes(pm.zero)
	// Push frames so that low frame numbers are handed out first; this keeps
	// frame assignment deterministic and debuggable.
	for i := int64(n) - 1; i >= 0; i-- {
		pm.free = append(pm.free, FrameID(i))
		pm.frames[i].inFree = true
	}
	pm.freeCount = int(n)
	pm.blockFree = make([]int, n/HugePages)
	for i := range pm.blockFree {
		pm.blockFree[i] = HugePages
	}
	pm.blockHuge = make([]int, n/HugePages)
	return pm
}

// PageSize reports the page size in bytes.
func (pm *PhysMem) PageSize() int { return pm.pageSize }

// TotalFrames reports the number of frames in the pool.
func (pm *PhysMem) TotalFrames() int { return len(pm.frames) }

// FramesInUse reports how many frames are currently allocated.
func (pm *PhysMem) FramesInUse() int { return pm.inUse }

// FreeFrames reports how many frames are available.
func (pm *PhysMem) FreeFrames() int { return pm.freeCount }

// BytesInUse reports allocated physical memory in bytes.
func (pm *PhysMem) BytesInUse() int64 { return int64(pm.inUse) * int64(pm.pageSize) }

// KSMFrames reports how many frames are currently KSM stable pages.
func (pm *PhysMem) KSMFrames() int { return pm.ksmFrames }

// ZeroFrames reports how many in-use frames are still lazily zero (never
// materialized, or reset by ZeroFrame). A frame whose materialized bytes
// happen to be all zero does not count; the gauge tracks the untouched set.
func (pm *PhysMem) ZeroFrames() int { return pm.zeroFrames }

// HugeBlocks reports how many huge blocks are currently allocated (blocks
// with at least one frame still carrying the huge flag; a partially carved
// block counts as one).
func (pm *PhysMem) HugeBlocks() int { return pm.hugeBlocks }

// HugeFrames reports how many frames currently back huge mappings. Carved
// subpage frames (released via ReleaseHugeFrame) no longer count.
func (pm *PhysMem) HugeFrames() int { return pm.hugeFrameN }

// IsHugeFrame reports whether the frame belongs to an allocated huge block.
func (pm *PhysMem) IsHugeFrame(id FrameID) bool { return pm.frameAt(id).huge }

// noteTaken and noteFreed maintain the free count and the per-block free
// gauges at every frame state transition.
func (pm *PhysMem) noteTaken(id FrameID) {
	pm.frames[id].inFree = false
	pm.freeCount--
	if b := int(id) / HugePages; b < len(pm.blockFree) {
		pm.blockFree[b]--
	}
}

func (pm *PhysMem) noteFreed(id FrameID) {
	pm.frames[id].inFree = true
	pm.freeCount++
	if b := int(id) / HugePages; b < len(pm.blockFree) {
		pm.blockFree[b]++
	}
}

// Alloc hands out a zeroed frame with refcount 1.
func (pm *PhysMem) Alloc() (FrameID, error) {
	if pm.freeCount == 0 {
		return NilFrame, ErrOutOfMemory
	}
	// Pop until a live entry surfaces: entries for frames that
	// AllocHugeBlock claimed in place are skipped lazily here. freeCount > 0
	// guarantees at least one live entry remains on the stack.
	var id FrameID
	for {
		id = pm.free[len(pm.free)-1]
		pm.free = pm.free[:len(pm.free)-1]
		if pm.frames[id].inFree {
			break
		}
	}
	pm.noteTaken(id)
	f := &pm.frames[id]
	f.desc = desc{} // free frames always carry a released zero descriptor
	f.refcnt = 1
	f.ksm = false
	f.huge = false
	pm.inUse++
	pm.allocs++
	pm.zeroFrames++
	return id, nil
}

// AllocHugeBlock claims one aligned run of HugePages free frames — the
// backing of a transparent huge page. Every frame comes back zeroed with
// refcount 1 and the huge flag set. The scan prefers the lowest fully-free
// block, keeping frame assignment deterministic; there is no defragmentation,
// so a fragmented pool returns ErrOutOfMemory even when enough scattered
// frames are free (exactly khugepaged's allocation-failure mode).
func (pm *PhysMem) AllocHugeBlock() (FrameID, error) {
	for b, n := range pm.blockFree {
		if n != HugePages {
			continue
		}
		base := FrameID(b * HugePages)
		for i := 0; i < HugePages; i++ {
			id := base + FrameID(i)
			pm.noteTaken(id)
			f := &pm.frames[id]
			f.desc = desc{}
			f.refcnt = 1
			f.ksm = false
			f.huge = true
		}
		pm.inUse += HugePages
		pm.allocs += HugePages
		pm.zeroFrames += HugePages
		pm.hugeBlocks++
		pm.blockHuge[b] = HugePages
		pm.hugeFrameN += HugePages
		return base, nil
	}
	return NilFrame, ErrOutOfMemory
}

// SplitHugeBlock dissolves a huge block back into independent base frames;
// contents and refcounts are preserved. Frames already carved out of the
// block (no longer huge — possibly even freed by their owner) are skipped.
// The caller re-points its page tables at the now-ordinary frames (see
// hypervisor.VMProcess.SplitHuge).
func (pm *PhysMem) SplitHugeBlock(base FrameID) {
	if base%HugePages != 0 {
		panic(fmt.Sprintf("mem: SplitHugeBlock(%d) not block-aligned", base))
	}
	b := int(base) / HugePages
	if b >= len(pm.blockHuge) || pm.blockHuge[b] == 0 {
		panic(fmt.Sprintf("mem: SplitHugeBlock(%d): no huge frames in block", base))
	}
	cleared := 0
	for i := 0; i < HugePages; i++ {
		// Direct indexing, not frameAt: a carved frame may have been freed
		// already and frameAt rejects free frames.
		f := &pm.frames[base+FrameID(i)]
		if !f.huge {
			continue
		}
		f.huge = false
		cleared++
	}
	pm.blockHuge[b] -= cleared
	pm.hugeFrameN -= cleared
	pm.hugeBlocks--
}

// ReleaseHugeFrame carves one frame out of its huge block: the frame keeps
// its content and refcount but loses the huge flag, becoming an ordinary
// frame that can be shared (IncRef/SetKSM) or freed individually. When the
// last huge frame of a block is released the block itself dissolves.
func (pm *PhysMem) ReleaseHugeFrame(id FrameID) {
	f := pm.frameAt(id)
	if !f.huge {
		panic(fmt.Sprintf("mem: ReleaseHugeFrame on non-huge frame %d", id))
	}
	f.huge = false
	b := int(id) / HugePages
	pm.blockHuge[b]--
	pm.hugeFrameN--
	if pm.blockHuge[b] == 0 {
		pm.hugeBlocks--
	}
}

// ReclaimHugeFrame restores a previously carved frame into its huge block
// (the re-absorption step of a collapse). The frame must be live, private
// (refcount 1) and not a KSM stable page — shared content cannot silently
// rejoin a huge mapping.
func (pm *PhysMem) ReclaimHugeFrame(id FrameID) {
	f := pm.frameAt(id)
	if f.huge {
		panic(fmt.Sprintf("mem: ReclaimHugeFrame on already-huge frame %d", id))
	}
	if f.refcnt != 1 || f.ksm {
		panic(fmt.Sprintf("mem: ReclaimHugeFrame on shared frame %d (refcnt %d, ksm %v)", id, f.refcnt, f.ksm))
	}
	f.huge = true
	b := int(id) / HugePages
	pm.blockHuge[b]++
	pm.hugeFrameN++
	if pm.blockHuge[b] == 1 {
		pm.hugeBlocks++
	}
}

// IsFree reports whether the frame is currently on the free list.
func (pm *PhysMem) IsFree(id FrameID) bool {
	if int(id) >= len(pm.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range", id))
	}
	return pm.frames[id].inFree
}

// ClaimSpecific allocates one specific free frame (zeroed, refcount 1),
// reporting whether it was free to claim. Re-absorption uses it to pull a
// carved subpage's original slot back into its block; the frame's stale
// free-stack entry is skipped lazily by Alloc, exactly as with
// AllocHugeBlock's in-place claims.
func (pm *PhysMem) ClaimSpecific(id FrameID) bool {
	if int(id) >= len(pm.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range", id))
	}
	f := &pm.frames[id]
	if !f.inFree {
		return false
	}
	pm.noteTaken(id)
	f.desc = desc{}
	f.refcnt = 1
	f.ksm = false
	f.huge = false
	pm.inUse++
	pm.allocs++
	pm.zeroFrames++
	return true
}

func (pm *PhysMem) frameAt(id FrameID) *frame {
	if int(id) >= len(pm.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range", id))
	}
	f := &pm.frames[id]
	if f.refcnt <= 0 {
		panic(fmt.Sprintf("mem: use of free frame %d", id))
	}
	return f
}

// IncRef adds a reference to a live frame (used when a page becomes shared).
// Huge-block frames are mapped by exactly one huge PTE and never shared.
func (pm *PhysMem) IncRef(id FrameID) {
	f := pm.frameAt(id)
	if f.huge {
		panic(fmt.Sprintf("mem: IncRef on huge-block frame %d", id))
	}
	f.refcnt++
}

// RefCount reports the current reference count of a live frame.
func (pm *PhysMem) RefCount(id FrameID) int {
	return int(pm.frameAt(id).refcnt)
}

// LiveRefCount reports a frame's reference count, or 0 for a free frame.
// Unlike RefCount it never panics, so the leak checker can sweep the whole
// pool comparing actual counts against expectations.
func (pm *PhysMem) LiveRefCount(id FrameID) int {
	if int(id) >= len(pm.frames) {
		panic(fmt.Sprintf("mem: frame %d out of range", id))
	}
	if n := pm.frames[id].refcnt; n > 0 {
		return int(n)
	}
	return 0
}

// DecRef drops a reference; the frame returns to the free list when the
// count reaches zero. Huge-block frames cannot be freed individually — the
// owner must SplitHugeBlock first.
func (pm *PhysMem) DecRef(id FrameID) {
	f := pm.frameAt(id)
	if f.huge {
		panic(fmt.Sprintf("mem: DecRef on huge-block frame %d (split the block first)", id))
	}
	f.refcnt--
	if f.refcnt == 0 {
		if f.desc.kind == descZero {
			pm.zeroFrames--
		}
		if f.ksm {
			pm.ksmFrames--
		}
		pm.cs.release(f.desc)
		f.desc = desc{}
		f.ksm = false
		pm.free = append(pm.free, id)
		pm.noteFreed(id)
		pm.inUse--
		pm.frees++
	}
}

// SetKSM marks or clears the frame's KSM stable-page flag. KSM stable pages
// are shared copy-on-write; the flag lets the analyzer attribute savings.
func (pm *PhysMem) SetKSM(id FrameID, v bool) {
	f := pm.frameAt(id)
	if v && f.huge {
		panic(fmt.Sprintf("mem: SetKSM on huge-block frame %d", id))
	}
	if v && !f.ksm {
		pm.ksmFrames++
		// A stable page's content is host-wide shared content: register it
		// in the content table so byte-identical imports (migration) and
		// snapshots attach to it instead of copying.
		if f.desc.kind == descLiteral {
			pm.cs.internExisting(f.desc.blob)
		}
	} else if !v && f.ksm {
		pm.ksmFrames--
	}
	f.ksm = v
}

// IsKSM reports whether the frame is a KSM stable page.
func (pm *PhysMem) IsKSM(id FrameID) bool { return pm.frameAt(id).ksm }

// Bytes returns a read-only view of the frame contents. All-zero frames
// return the canonical zero page; seeded frames materialize into an
// interned blob shared by every frame with the same content. Callers must
// not mutate the result, and it is only borrowed: the next call that changes
// or frees any content of this pool (Write, FillFrame, ZeroFrame, CopyFrame,
// Restore, Release, ImportPage, DecRef to zero) may hand the buffer to
// another page. Copy the bytes to keep them longer.
func (pm *PhysMem) Bytes(id FrameID) []byte {
	return pm.bytesOf(pm.frameAt(id))
}

func (pm *PhysMem) bytesOf(f *frame) []byte {
	switch f.desc.kind {
	case descZero:
		return pm.zero
	case descSeeded:
		f.desc = desc{kind: descLiteral, blob: pm.internSeeded(f.desc.seed, pm.seededSum(&f.desc))}
		return f.desc.blob.data
	default:
		return f.desc.blob.data
	}
}

// seedSum returns the checksum of seed's page, computed at most once per
// pool per seed, streamed straight from the generator without touching a
// page buffer.
func (pm *PhysMem) seedSum(seed Seed) uint64 {
	if v, ok := pm.cs.seedSums[seed]; ok {
		return v
	}
	v := ChecksumSeed(seed, pm.pageSize)
	pm.cs.seedSums[seed] = v
	return v
}

// seededSum returns a Seeded descriptor's checksum, asking seedSum only the
// first time and keeping the answer on the descriptor: a page checksummed
// pass after pass, then materialized, costs one cache probe, not one each.
func (pm *PhysMem) seededSum(d *desc) uint64 {
	if !d.summed {
		d.sum, d.summed = pm.seedSum(d.seed), true
	}
	return d.sum
}

// internSeeded materializes seed's page, whose checksum is sum, as an
// interned blob; frames sharing a fill seed converge on one buffer. A blob in
// sum's chain made from this very seed is a hit that never regenerates or
// compares bytes. Otherwise the page is generated once, into the buffer the
// new blob keeps, which goes back for reuse only if the table has the bytes.
//
// Asking for sum before the hit test cannot grow ContentStats.SeedSums: a
// blob is marked seeded on a miss, after its seed's sum entered seedSums,
// which never forgets — so on a hit the seed is always cached already.
func (pm *PhysMem) internSeeded(seed Seed, sum uint64) *blob {
	cs := pm.cs
	for b := cs.table[sum]; b != nil; b = b.next {
		if b.seeded && b.seed == seed {
			b.refs++
			cs.internHits++
			return b
		}
	}
	buf := cs.pageBuf(pm.pageSize, false)
	Fill(buf, seed)
	b := cs.lookupInterned(buf, sum)
	if b == nil {
		pm.materialized++
		b = cs.addInterned(buf, sum)
	} else {
		b.refs++
		cs.internHits++
		cs.freeBufs = append(cs.freeBufs, buf)
	}
	if !b.seeded {
		b.seeded = true
		b.seed = seed
	}
	return b
}

// IsZero reports whether the frame content is all zero bytes. Zero
// descriptors answer immediately; otherwise the cached content checksum is
// compared against the pool's zero-page checksum first, so a byte scan only
// happens when the checksum is dirty or actually collides with zeroSum.
func (pm *PhysMem) IsZero(id FrameID) bool {
	return pm.isZeroFrame(pm.frameAt(id))
}

func (pm *PhysMem) isZeroFrame(f *frame) bool {
	switch f.desc.kind {
	case descZero:
		return true
	case descSeeded:
		return pm.seededSum(&f.desc) == pm.zeroSum && bytes.Equal(pm.bytesOf(f), pm.zero)
	default:
		b := f.desc.blob
		if b.sumValid && b.sum != pm.zeroSum {
			return false
		}
		return bytes.Equal(b.data, pm.zero)
	}
}

// Write copies data into the frame at the given offset, privatizing the
// backing content if it is shared: a zero or seeded descriptor materializes
// into a fresh private blob, a shared or interned blob is copied before
// mutation (copy-on-write), and a frame holding the sole reference to a
// private blob mutates in place. Writing to a KSM stable page is a bug in
// the caller (the hypervisor must break COW first) and panics.
func (pm *PhysMem) Write(id FrameID, off int, data []byte) {
	f := pm.frameAt(id)
	if f.ksm {
		panic(fmt.Sprintf("mem: direct write to KSM stable frame %d", id))
	}
	if off < 0 || off+len(data) > pm.pageSize {
		panic(fmt.Sprintf("mem: write [%d,%d) outside page of %d bytes", off, off+len(data), pm.pageSize))
	}
	if len(data) == 0 {
		return
	}
	switch f.desc.kind {
	case descZero:
		allZero := true
		for _, b := range data {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return // zero write to a zero page is a no-op
		}
		buf := pm.cs.pageBuf(pm.pageSize, true)
		copy(buf[off:], data)
		f.desc = desc{kind: descLiteral, blob: pm.cs.newBlob(buf)}
		pm.materialized++
		pm.zeroFrames--
	case descSeeded:
		buf := pm.cs.pageBuf(pm.pageSize, false)
		Fill(buf, f.desc.seed)
		copy(buf[off:], data)
		f.desc = desc{kind: descLiteral, blob: pm.cs.newBlob(buf)}
		pm.materialized++
	default:
		b := f.desc.blob
		if b.refs == 1 && !b.interned {
			copy(b.data[off:], data)
			b.sumValid = false
			return
		}
		buf := pm.cs.pageBuf(pm.pageSize, false)
		copy(buf, b.data)
		copy(buf[off:], data)
		pm.cs.release(f.desc)
		f.desc = desc{kind: descLiteral, blob: pm.cs.newBlob(buf)}
		pm.cs.cowCopies++
		pm.materialized++
	}
}

// FillFrame overwrites the whole frame with a deterministic byte stream.
// The frame just records the seed; bytes exist only if something later
// reads or partially overwrites them.
func (pm *PhysMem) FillFrame(id FrameID, seed Seed) {
	f := pm.frameAt(id)
	if f.ksm {
		panic(fmt.Sprintf("mem: direct fill of KSM stable frame %d", id))
	}
	if f.desc.kind == descZero {
		pm.zeroFrames--
	}
	pm.cs.release(f.desc)
	f.desc = desc{kind: descSeeded, seed: seed}
}

// ZeroFrame resets the frame to the canonical zero page (dropping the
// backing content). GC uses this when it sweeps free regions.
func (pm *PhysMem) ZeroFrame(id FrameID) {
	f := pm.frameAt(id)
	if f.ksm {
		panic(fmt.Sprintf("mem: direct zero of KSM stable frame %d", id))
	}
	if f.desc.kind != descZero {
		pm.zeroFrames++
	}
	pm.cs.release(f.desc)
	f.desc = desc{}
}

// CopyFrame gives dst the same content as src (used by COW breaks, huge
// collapse, and lifecycle paths). It aliases src's descriptor — no bytes
// move; a later Write through either frame privatizes its copy.
func (pm *PhysMem) CopyFrame(dst, src FrameID) {
	if dst == src {
		return
	}
	sf := pm.frameAt(src)
	df := pm.frameAt(dst)
	if df.ksm {
		panic(fmt.Sprintf("mem: copy into KSM stable frame %d", dst))
	}
	nd := pm.cs.retain(sf.desc)
	wasZero := df.desc.kind == descZero
	pm.cs.release(df.desc)
	df.desc = nd
	if nowZero := nd.kind == descZero; wasZero && !nowZero {
		pm.zeroFrames--
	} else if !wasZero && nowZero {
		pm.zeroFrames++
	}
}

// descsEqualFast decides equality from descriptors alone when possible:
// same kind with same identity (both zero, same seed, same blob) is equal;
// anything else is unknown (ok=false) and needs the checksum/byte path.
func descsEqualFast(x, y desc) (eq, ok bool) {
	if x.kind != y.kind {
		return false, false
	}
	switch x.kind {
	case descZero:
		return true, true
	case descSeeded:
		if x.seed == y.seed {
			return true, true
		}
	default:
		if x.blob == y.blob {
			return true, true
		}
	}
	return false, false
}

// Equal reports whether two frames have byte-identical contents: O(1) on
// matching descriptors, checksum reject for the common different case, and
// a byte verify only when checksums collide.
func (pm *PhysMem) Equal(a, b FrameID) bool {
	if a == b {
		return true
	}
	fa, fb := pm.frameAt(a), pm.frameAt(b)
	if eq, ok := descsEqualFast(fa.desc, fb.desc); ok {
		return eq
	}
	if pm.checksumOf(fa) != pm.checksumOf(fb) {
		return false
	}
	return bytes.Equal(pm.bytesOf(fa), pm.bytesOf(fb))
}

// Compare orders two frames by lexicographic byte comparison. Equal
// descriptors short-circuit to 0 without materializing.
func (pm *PhysMem) Compare(a, b FrameID) int {
	if a == b {
		return 0
	}
	fa, fb := pm.frameAt(a), pm.frameAt(b)
	if eq, ok := descsEqualFast(fa.desc, fb.desc); ok && eq {
		return 0
	}
	return bytes.Compare(pm.bytesOf(fa), pm.bytesOf(fb))
}

// Checksum returns the frame's content checksum (ChecksumBytes of its bytes),
// computed at most once per content — zero pages use the pool's precomputed
// sum, seeded pages the per-seed cache and then their descriptor's memo,
// literal blobs a sum cached on the blob itself.
func (pm *PhysMem) Checksum(id FrameID) uint64 {
	return pm.checksumOf(pm.frameAt(id))
}

func (pm *PhysMem) checksumOf(f *frame) uint64 {
	switch f.desc.kind {
	case descZero:
		return pm.zeroSum
	case descSeeded:
		return pm.seededSum(&f.desc)
	default:
		return f.desc.blob.checksum()
	}
}

// Stats reports cumulative allocator statistics.
type Stats struct {
	Allocs       uint64
	Frees        uint64
	Materialized uint64
	InUse        int
	Free         int
}

// Stats returns a snapshot of allocator counters.
func (pm *PhysMem) Stats() Stats {
	return Stats{
		Allocs:       pm.allocs,
		Frees:        pm.frees,
		Materialized: pm.materialized,
		InUse:        pm.inUse,
		Free:         pm.freeCount,
	}
}

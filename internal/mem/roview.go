package mem

import "bytes"

// ROView is a strictly read-only window onto a pool's frame contents, built
// for the sharded KSM scanner's worker goroutines. The regular accessors
// (Checksum, Equal, Bytes) are cheap *because* they mutate: they
// lazily materialize seeded descriptors into interned blobs, cache checksums
// on blobs and in the per-seed table, and draw page buffers from one recycling
// list — none of which is safe with several workers reading the same pool. An
// ROView computes the same answers without writing any pool state: seeded
// content is regenerated into view-owned buffers, uncached checksums are
// recomputed in place, and the only caches touched are the view's own.
//
// Concurrency contract: any number of ROViews may be used from separate
// goroutines, provided nothing mutates the pool (or the frames' contents)
// concurrently. The scanner guarantees this by freezing all pool and
// page-table writes for the duration of a worker phase and funnelling them
// through a serial commit step.
//
// The price of not writing is repeated work — a seeded page is regenerated
// for a byte comparison instead of being interned once. Each of the view's
// two buffers remembers which frame it holds, so a probe compared against
// frame after frame is generated once, not once per comparison. Fills
// records which frames paid that price so the serial commit step can
// materialize them through the normal mutating path afterwards, restoring
// the compute-once steady state for later batches.
type ROView struct {
	pm   *PhysMem
	bufA roBuf
	bufB roBuf
	// seedSums caches checksums for seeds missing from the pool's shared
	// cache. Seed→checksum is a pure function of (seed, page size), so the
	// view's copy can persist for its whole lifetime.
	seedSums map[Seed]uint64
	// filled collects frames whose seeded content the view had to
	// regenerate for a byte comparison, each once (inFilled dedups); see
	// Fills.
	filled   []FrameID
	inFilled map[FrameID]struct{}
}

// roBuf is one page buffer of a view plus the seeded frame whose content it
// currently holds (NilFrame: none). The seed is remembered beside the frame
// id because a frame can be refilled between two frozen phases.
type roBuf struct {
	data  []byte
	frame FrameID
	seed  Seed
}

// NewROView creates a read-only content view over the pool.
func (pm *PhysMem) NewROView() *ROView {
	return &ROView{
		pm:       pm,
		bufA:     roBuf{frame: NilFrame},
		bufB:     roBuf{frame: NilFrame},
		inFilled: make(map[FrameID]struct{}),
	}
}

// Checksum returns the frame's content checksum, identical to
// PhysMem.Checksum but without caching into pool state: a seeded frame's
// memo is read, never filled.
func (v *ROView) Checksum(id FrameID) uint64 {
	f := v.pm.frameAt(id)
	switch f.desc.kind {
	case descZero:
		return v.pm.zeroSum
	case descSeeded:
		if f.desc.summed {
			return f.desc.sum
		}
		return v.seedSum(f.desc.seed)
	default:
		b := f.desc.blob
		if b.sumValid {
			return b.sum
		}
		return ChecksumBytes(b.data)
	}
}

func (v *ROView) seedSum(seed Seed) uint64 {
	// The pool's cache is written only between worker phases, so a
	// concurrent read here is safe and catches most seeds.
	if s, ok := v.pm.cs.seedSums[seed]; ok {
		return s
	}
	if s, ok := v.seedSums[seed]; ok {
		return s
	}
	s := ChecksumSeed(seed, v.pm.pageSize)
	if v.seedSums == nil {
		v.seedSums = make(map[Seed]uint64)
	}
	v.seedSums[seed] = s
	return s
}

// bytesRO returns the frame's content bytes, regenerating seeded pages into
// the given view-owned buffer — unless it already holds them — instead of
// materializing them.
func (v *ROView) bytesRO(id FrameID, f *frame, buf *roBuf) []byte {
	switch f.desc.kind {
	case descZero:
		return v.pm.zero
	case descSeeded:
		if buf.frame != id || buf.seed != f.desc.seed {
			if buf.data == nil {
				buf.data = make([]byte, v.pm.pageSize)
			}
			Fill(buf.data, f.desc.seed)
			buf.frame, buf.seed = id, f.desc.seed
			v.noteFill(id)
		}
		return buf.data
	default:
		return f.desc.blob.data
	}
}

// Equal reports whether two frames hold byte-identical content; same answer
// as PhysMem.Equal, no pool writes.
func (v *ROView) Equal(a, b FrameID) bool {
	if a == b {
		return true
	}
	fa, fb := v.pm.frameAt(a), v.pm.frameAt(b)
	if eq, ok := descsEqualFast(fa.desc, fb.desc); ok {
		return eq
	}
	if v.Checksum(a) != v.Checksum(b) {
		return false
	}
	return bytes.Equal(v.bytesRO(a, fa, &v.bufA), v.bytesRO(b, fb, &v.bufB))
}

// noteFill puts a seeded frame on the Fills list, once.
func (v *ROView) noteFill(id FrameID) {
	if _, dup := v.inFilled[id]; !dup {
		v.inFilled[id] = struct{}{}
		v.filled = append(v.filled, id)
	}
}

// Materialize is the view's share of PhysMem.Materialize: a seeded frame goes
// on the Fills list, for the pool to intern once the frozen phase ends, and
// nothing is generated here.
func (v *ROView) Materialize(id FrameID) {
	if v.pm.frameAt(id).desc.kind == descSeeded {
		v.noteFill(id)
	}
}

// Fills returns the frames whose seeded content this view regenerated, or was
// asked to materialize, since the last ResetFills, each once, in first-request
// order — candidates for one-time materialization through the pool's normal
// mutating path once single-threaded control resumes.
func (v *ROView) Fills() []FrameID { return v.filled }

// ResetFills clears the regenerated-frame log and forgets what the buffers
// hold. Call it at the start of each frozen phase: frame ids recorded before
// pool mutations resumed may since have been freed or refilled.
func (v *ROView) ResetFills() {
	v.filled = v.filled[:0]
	clear(v.inFilled)
	v.bufA.frame, v.bufB.frame = NilFrame, NilFrame
}

// AdoptChecksum installs a checksum computed by an ROView into the pool's
// caches, restoring the compute-once property for content the read-only
// path could not cache. sum must be the frame's current content checksum
// (i.e. computed while nothing mutated the frame); an already-cached value
// wins, so a correct caller never changes an existing cache entry.
func (pm *PhysMem) AdoptChecksum(id FrameID, sum uint64) {
	f := pm.frameAt(id)
	switch f.desc.kind {
	case descZero:
		// Precomputed per pool; nothing to adopt.
	case descSeeded:
		if _, ok := pm.cs.seedSums[f.desc.seed]; !ok {
			pm.cs.seedSums[f.desc.seed] = sum
		}
		pm.seededSum(&f.desc)
	default:
		b := f.desc.blob
		if !b.sumValid {
			b.setSum(sum)
		}
	}
}

// Materialize forces the frame's content through the normal read path,
// interning seeded pages exactly as a mutating accessor would have. The
// serial commit step uses it to repay the ROView's regenerated reads.
func (pm *PhysMem) Materialize(id FrameID) { pm.bytesOf(pm.frameAt(id)) }

package ksm

import "repro/internal/mem"

// stableIndex is one shard's set of KSM stable frames, keyed by the content
// checksum every candidate already carries. Stable frames are write-protected,
// so a frame's checksum cannot drift from the key it was inserted under. A
// bucket holds the frames whose contents share a checksum: one, unless the
// checksum collides, and every hit is verified by Equal, so a collision costs
// one more byte comparison and never a wrong share.
type stableIndex struct {
	buckets map[uint64][]mem.FrameID
	size    int
}

func newStableIndex() *stableIndex {
	return &stableIndex{buckets: make(map[uint64][]mem.FrameID)}
}

// lookup finds the stable frame byte-identical to probe, whose checksum is
// sum. A miss against a non-empty index materializes the probe: the ordered
// tree this index replaced interned every seeded probe it compared, and
// bench/golden.json digests mem.ContentStats (DESIGN.md §6.1). Nothing else
// depends on the call.
func (x *stableIndex) lookup(r contentReader, probe mem.FrameID, sum uint64) (mem.FrameID, bool) {
	for _, f := range x.buckets[sum] {
		if r.Equal(probe, f) {
			return f, true
		}
	}
	if x.size > 0 {
		r.Materialize(probe)
	}
	return mem.NilFrame, false
}

// insert adds a stable frame whose checksum is sum. Content must not already
// be present; the caller looks up first. The frame is materialized for the
// reason lookup gives.
func (x *stableIndex) insert(r contentReader, frame mem.FrameID, sum uint64) {
	r.Materialize(frame)
	x.buckets[sum] = append(x.buckets[sum], frame)
	x.size++
}

// remove deletes exactly this frame id from the bucket of its checksum.
func (x *stableIndex) remove(frame mem.FrameID, sum uint64) bool {
	bucket := x.buckets[sum]
	for i, f := range bucket {
		if f != frame {
			continue
		}
		if len(bucket) == 1 {
			delete(x.buckets, sum)
		} else {
			x.buckets[sum] = append(bucket[:i], bucket[i+1:]...)
		}
		x.size--
		return true
	}
	return false
}

// walk visits every stable frame, in no particular order.
func (x *stableIndex) walk(fn func(frame mem.FrameID)) {
	for _, bucket := range x.buckets {
		for _, f := range bucket {
			fn(f)
		}
	}
}

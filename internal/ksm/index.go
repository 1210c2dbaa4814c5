package ksm

import "repro/internal/mem"

// sumTable holds both of the scanner's indexes — the KSM stable frames and
// this pass's unstable candidates — in one open-addressed, linearly probed
// table keyed by the content checksum every candidate already carries. A
// checksum's slot heads two chains of int32 links: the stable frames whose
// contents share the checksum, in insertion order, and the pages recorded
// under it, in record order; removal keeps the order of the rest. A chain
// holds one node unless the checksum collides, and every hit is verified by
// Equal, so a collision costs one more byte comparison and never a wrong
// share. Stable frames are write-protected, so a frame's checksum cannot
// drift from the slot it was inserted under.
//
// Checksums leave mem through the SplitMix64 finalizer, so the low bits of a
// sum are its home slot. A page costs one probe: decide claims the slot once
// and walks, promotes and records through its index. The unstable index is
// dropped at every pass boundary by bumping gen: a slot's unstable chain
// counts only while the slot's gen is current. A slot with no stable frame
// and no current unstable entry is dead; rehash reclaims dead slots in place
// and doubles the table only when the live ones still fill half of it.
type sumTable struct {
	slots []slot
	mask  uint64
	used  int // claimed slots, live or dead
	limit int // used stays below it, so every probe ends at an empty slot
	gen   uint32

	stable     []stableNode
	stableFree int32 // free-list head; a free node's frame is NilFrame
	stableN    int

	// unstable is the node store in fixed chunks; unstableLen counts the
	// nodes handed out since dropUnstable last rewound it, including those on
	// the free list.
	unstable     [][]unstableNode
	unstableLen  int
	unstableFree int32
	unstableN    int
}

// slot is one checksum's entry. gen 0 marks an empty slot; the table's own
// generation starts at 1.
type slot struct {
	sum              uint64
	stable, unstable int32 // chain heads, nilNode when empty
	gen              uint32
}

type stableNode struct {
	frame mem.FrameID
	next  int32
}

type unstableNode struct {
	key  pageKey
	next int32
}

// nilNode ends a chain.
const nilNode int32 = -1

// unstableChunk is the unstable node store's chunk size in nodes (24 KiB a
// chunk on 64-bit targets).
const unstableChunk = 1024

// minSlots is a new table's size; Register grows it to the registered pages.
const minSlots = 1024

// makeSumTable returns an empty table of capacity slots, a power of two of
// at least two.
func makeSumTable(capacity int) sumTable {
	t := sumTable{gen: 1, stableFree: nilNode, unstableFree: nilNode}
	t.resize(capacity)
	return t
}

// resize moves the live slots into a new array of capacity slots.
func (t *sumTable) resize(capacity int) {
	old := t.slots
	t.slots = make([]slot, capacity)
	t.mask = uint64(capacity - 1)
	t.limit = capacity - capacity/4
	t.used = 0
	for i := range old {
		if s := &old[i]; s.gen != 0 && t.live(s) {
			j, _ := t.find(s.sum)
			t.slots[j] = *s
			t.used++
		}
	}
}

// reserve sizes the table for the sums of pages pages — every registered page
// recorded under its own checksum — at no more than half full.
func (t *sumTable) reserve(pages int) {
	capacity := len(t.slots)
	for capacity < 2*pages {
		capacity *= 2
	}
	if capacity > len(t.slots) {
		t.resize(capacity)
	}
}

// find returns sum's slot if the table holds one, and otherwise the empty slot
// that ends its probe.
func (t *sumTable) find(sum uint64) (int, bool) {
	for i := sum & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.sum == sum && s.gen != 0 {
			return int(i), true
		}
		if s.gen == 0 {
			return int(i), false
		}
	}
}

// claim returns sum's slot, claiming an empty one if the table holds none. A
// claim may rehash, which moves slots: an index is good until the next claim.
func (t *sumTable) claim(sum uint64) int {
	i, ok := t.find(sum)
	if ok {
		return i
	}
	if t.used >= t.limit {
		t.rehash()
		i, _ = t.find(sum)
	}
	t.slots[i] = slot{sum: sum, stable: nilNode, unstable: nilNode, gen: t.gen}
	t.used++
	return i
}

// live reports whether a claimed slot still leads to an entry.
func (t *sumTable) live(s *slot) bool {
	return s.stable != nilNode || (s.gen == t.gen && s.unstable != nilNode)
}

// rehash reclaims the dead slots, then doubles the table if the live ones
// still fill more than half of it.
func (t *sumTable) rehash() {
	t.purge()
	if capacity := len(t.slots); t.used > capacity/2 {
		t.resize(2 * capacity)
	}
}

// purge empties every dead slot in place. Linear probing needs no tombstones:
// each emptied slot takes the next entry of its cluster that may live there
// (its home is not between the hole and itself), and the hole moves on to
// where that entry was.
func (t *sumTable) purge() {
	for i := uint64(0); i < uint64(len(t.slots)); {
		if s := &t.slots[i]; s.gen == 0 || t.live(s) {
			i++
			continue
		}
		hole := i
		for j := (hole + 1) & t.mask; t.slots[j].gen != 0; j = (j + 1) & t.mask {
			if home := t.slots[j].sum & t.mask; (j-home)&t.mask >= (j-hole)&t.mask {
				t.slots[hole] = t.slots[j]
				hole = j
			}
		}
		t.slots[hole] = slot{}
		t.used--
		// Slot i holds whatever moved in, perhaps another dead slot: look again.
	}
}

// lookupStable finds the stable frame in slot i byte-identical to probe. A
// miss against a non-empty index materializes the probe: the ordered tree
// this index replaced interned every seeded probe it compared, and
// bench/golden.json digests mem.ContentStats (DESIGN.md §6.1). Nothing else
// depends on the call.
func (t *sumTable) lookupStable(pm *mem.PhysMem, i int, probe mem.FrameID) (mem.FrameID, bool) {
	for n := t.slots[i].stable; n != nilNode; n = t.stable[n].next {
		if f := t.stable[n].frame; pm.Equal(probe, f) {
			return f, true
		}
	}
	if t.stableN > 0 {
		pm.Materialize(probe)
	}
	return mem.NilFrame, false
}

// insertStable appends a stable frame to slot i, the slot of its checksum.
// Content must not already be present; the caller looks up first. The frame
// is materialized for the reason lookupStable gives.
func (t *sumTable) insertStable(pm *mem.PhysMem, i int, frame mem.FrameID) {
	pm.Materialize(frame)
	n := t.stableFree
	if n != nilNode {
		t.stableFree = t.stable[n].next
	} else {
		n = int32(len(t.stable))
		t.stable = append(t.stable, stableNode{})
	}
	t.stable[n] = stableNode{frame: frame, next: nilNode}
	link := &t.slots[i].stable
	for *link != nilNode {
		link = &t.stable[*link].next
	}
	*link = n
	t.stableN++
}

// removeStable deletes exactly this frame from the chain of its checksum.
func (t *sumTable) removeStable(frame mem.FrameID, sum uint64) bool {
	i, ok := t.find(sum)
	if !ok {
		return false
	}
	for link := &t.slots[i].stable; *link != nilNode; link = &t.stable[*link].next {
		if n := *link; t.stable[n].frame == frame {
			*link = t.stable[n].next
			t.stable[n] = stableNode{frame: mem.NilFrame, next: t.stableFree}
			t.stableFree = n
			t.stableN--
			return true
		}
	}
	return false
}

// walkStable visits every stable frame, in no particular order.
func (t *sumTable) walkStable(fn func(frame mem.FrameID)) {
	for _, n := range t.stable {
		if n.frame != mem.NilFrame {
			fn(n.frame)
		}
	}
}

// unstableHead is the first node of slot i's unstable chain.
func (t *sumTable) unstableHead(i int) int32 {
	if s := &t.slots[i]; s.gen == t.gen {
		return s.unstable
	}
	return nilNode
}

func (t *sumTable) node(n int32) *unstableNode {
	return &t.unstable[uint32(n)/unstableChunk][uint32(n)%unstableChunk]
}

// newNode hands out the node store's next unused node, adding a chunk when
// the store is full.
func (t *sumTable) newNode() int32 {
	if t.unstableLen == len(t.unstable)*unstableChunk {
		t.unstable = append(t.unstable, make([]unstableNode, unstableChunk))
	}
	t.unstableLen++
	return int32(t.unstableLen - 1)
}

// record appends key to slot i's unstable chain.
func (t *sumTable) record(i int, key pageKey) {
	n := t.unstableFree
	if n != nilNode {
		t.unstableFree = t.node(n).next
	} else {
		n = t.newNode()
	}
	*t.node(n) = unstableNode{key: key, next: nilNode}
	s := &t.slots[i]
	if s.gen != t.gen {
		s.gen, s.unstable = t.gen, nilNode
	}
	link := &s.unstable
	for *link != nilNode {
		link = &t.node(*link).next
	}
	*link = n
	t.unstableN++
}

// unlinkUnstable removes node n, which follows prev (nilNode: the head), from
// slot i's unstable chain and frees it for the next record.
func (t *sumTable) unlinkUnstable(i int, prev, n int32) {
	nd := t.node(n)
	if prev == nilNode {
		t.slots[i].unstable = nd.next
	} else {
		t.node(prev).next = nd.next
	}
	*nd = unstableNode{next: t.unstableFree} // no pointer into a dead VM survives
	t.unstableFree = n
	t.unstableN--
}

// dropUnstable empties the unstable index: every chain goes stale with the
// generation, and the node store is rewound in place for the next pass to
// refill. Should the generation wrap, every claimed slot is marked stale by
// hand once.
func (t *sumTable) dropUnstable() {
	if t.gen++; t.gen == 0 {
		for i := range t.slots {
			if t.slots[i].gen != 0 {
				t.slots[i].gen = 1
			}
		}
		t.gen = 2
	}
	t.unstableLen, t.unstableFree, t.unstableN = 0, nilNode, 0
}

// filterUnstable unlinks the unstable entries drop selects, given each entry's
// page and checksum.
func (t *sumTable) filterUnstable(drop func(key pageKey, sum uint64) bool) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.gen != t.gen {
			continue
		}
		prev := nilNode
		for n := s.unstable; n != nilNode; {
			next := t.node(n).next
			if drop(t.node(n).key, s.sum) {
				t.unlinkUnstable(i, prev, n)
			} else {
				prev = n
			}
			n = next
		}
	}
}

// unstableStorage is the node store's size in nodes.
func (t *sumTable) unstableStorage() int { return len(t.unstable) * unstableChunk }

// repackUnstable moves the unstable entries into a fresh node store, chain by
// chain in order, and lets the old one go. A dropped index rewinds its store
// in place, but the retained index of incremental mode is never dropped: its
// merged and compacted entries only feed the free list, which would keep the
// store at its high-water mark.
func (t *sumTable) repackUnstable() {
	old := t.unstable
	t.unstable, t.unstableLen, t.unstableFree = nil, 0, nilNode
	for i := range t.slots {
		s := &t.slots[i]
		if s.gen != t.gen {
			continue
		}
		link := &s.unstable
		for n := *link; n != nilNode; {
			nd := old[uint32(n)/unstableChunk][uint32(n)%unstableChunk]
			m := t.newNode()
			*t.node(m) = unstableNode{key: nd.key, next: nilNode}
			*link = m
			link = &t.node(m).next
			n = nd.next
		}
	}
}

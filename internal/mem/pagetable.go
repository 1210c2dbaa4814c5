package mem

import (
	"fmt"
	"math/bits"
)

// VPN is a virtual page number: a virtual address divided by the page size.
// The same type serves every translation layer (guest-virtual, guest-
// physical, host-virtual), because each layer is just a sparse mapping from
// page numbers to the next layer down.
type VPN uint64

// HugeAlign rounds vpn down to the HugePages boundary that would head a huge
// mapping covering it.
func HugeAlign(vpn VPN) VPN { return vpn &^ (HugePages - 1) }

// PTE is a page-table entry. A PTE exists in a PageTable only when the page
// is present (mapped to a frame) or swapped out (content lives in a swap
// slot); unmapped pages simply have no entry.
//
// The layout is part of the table's speed (DESIGN §6.11): wide fields first
// packs a PTE into 24 bytes, a 12 KiB leaf, and Lookup rewrites Frame and
// SwapSlot as the one word they share.
type PTE struct {
	Frame    FrameID
	SwapSlot uint32
	// LastUse is a virtual timestamp (simclock microseconds) of the most
	// recent access, maintained by the hypervisor for LRU eviction.
	LastUse  int64
	Writable bool
	// COW marks a write-protected shared mapping: the next write must
	// allocate a private copy. Both KSM merging and fork-style sharing set
	// it.
	COW bool
	// Swapped marks an entry whose content has been written to swap;
	// Frame is NilFrame and SwapSlot identifies the swap page.
	Swapped bool
	// Huge marks a transparent-huge-page mapping: one stored entry at a
	// HugePages-aligned VPN covers the whole aligned run, backed by a
	// contiguous frame block. Lookup synthesizes the middle entries, so only
	// the head is stored.
	Huge bool
	// Accessed is the referenced bit of the second-chance (clock)
	// replacement policy: set on every touch, cleared when the clock hand
	// passes.
	Accessed bool
	// An array longer than one keeps the struct out of the register ABI: a
	// PTE returned in nine registers is stored back field by field and
	// reloaded whole by every caller, two store-forwarding stalls per Lookup.
	_ [3]byte
}

// The table is a radix tree with x86-64's shape: four levels of 9 bits, so a
// leaf spans exactly one HugePages-aligned run and page numbers are 36 bits
// wide (the 48-bit canonical address limit at 4 KiB pages).
const (
	ptFanBits = 9
	ptFan     = 1 << ptFanBits
	// maxVPN bounds the page numbers a table can hold: Set at or beyond it
	// panics, Lookup reports such a page absent.
	maxVPN VPN = 1 << (4 * ptFanBits)
)

var _ = [1]struct{}{}[ptFan-HugePages] // a leaf is exactly one huge run

type (
	ptRoot [ptFan]*ptMid
	ptMid  [ptFan]*ptDir
	ptDir  [ptFan]*ptLeaf
)

// ptLeaf holds the entries of one aligned HugePages run inline. A 2 MB
// mapping is state of its leaf: the huge head is the entry in slot 0, and the
// per-subpage state the FHPM daemon keeps for the run lives beside it.
type ptLeaf struct {
	// stored is the presence bitmap: bit i set means ptes[i] is an entry. A
	// slot whose bit is clear holds the zero PTE, so ptes[0].Huge alone says
	// whether the run is huge; carved, ncarved and heat are zero unless it is.
	stored [ptFan / 64]uint64
	// carved marks subpages excluded from the huge run: they own real base
	// PTEs, the head no longer covers them. Offset 0 is never carved: the
	// head subpage anchors the huge entry itself (the compound-page head,
	// in Linux terms).
	carved  [ptFan / 64]uint64
	ncarved int
	// heat is allocated on the run's first dirty-log event or decay pass.
	heat *subpageHeat
	ptes [ptFan]PTE
}

// subpageHeat is the dirty-ring-fed signal the FHPM daemon uses for its
// demote/promote decisions on one huge run.
type subpageHeat struct {
	// count holds dirty-log events per subpage, saturating. The daemon halves
	// them each visit, so the signal is an EWMA of the write rate.
	count [HugePages]uint16
	// age counts decay passes since the collapse; demotion waits for
	// age >= 2 so a freshly collapsed block gets a chance to show heat.
	age uint8
	// quiet counts consecutive decay passes that began with zero total
	// heat; re-promotion waits for quiet >= 2 (the block has quiesced).
	quiet uint8
}

func (l *ptLeaf) has(i VPN) bool      { return l.stored[i/64]&(1<<(i%64)) != 0 }
func (l *ptLeaf) isCarved(i VPN) bool { return l.carved[i/64]&(1<<(i%64)) != 0 }

// covers: slot i is answered by the leaf's huge head (itself included).
func (l *ptLeaf) covers(i VPN) bool { return l.ptes[0].Huge && !l.isCarved(i) }

// put stores e in slot i, reporting the entry it replaced (zero if none).
func (l *ptLeaf) put(i VPN, e PTE) (old PTE, existed bool) {
	old, existed = l.ptes[i], l.has(i)
	l.ptes[i] = e
	l.stored[i/64] |= 1 << (i % 64)
	return old, existed
}

// dropFine forgets the run's carve and heat state.
func (l *ptLeaf) dropFine() { l.carved, l.ncarved, l.heat = [ptFan / 64]uint64{}, 0, nil }

func (l *ptLeaf) ensureHeat() *subpageHeat {
	if l.heat == nil {
		l.heat = &subpageHeat{}
	}
	return l.heat
}

// PageTable is a sparse mapping from virtual page numbers to PTEs, walked
// like the hardware structure it models; iteration is an in-order walk, so
// ascending by construction. The read path — Lookup, Range, SortedVPNs, the
// carve and heat getters — writes nothing, so any number of goroutines may
// read a table nobody is mutating.
// Leaves are never freed while the table lives.
//
// Huge mappings store a single entry at the aligned head VPN with Huge set;
// lookups of the other HugePages-1 page numbers in the run synthesize their
// PTE from the head (Frame = head frame + offset). Base entries may not be
// installed inside a huge run — split it first, either wholesale
// (SplitHuge) or per-subpage (SplitHugeSubpages, the FHPM carve-out path).
type PageTable struct {
	root ptRoot
	// n counts stored entries (present + swapped; a huge mapping is one).
	n int
	// present counts resident (non-swapped) pages, maintained on every
	// mutation. A huge entry counts as HugePages minus the carved subpages
	// that left the run (their own base entries carry the count instead —
	// see SplitHugeSubpages for the bookkeeping contract).
	present   int
	hugeHeads int // huge entries
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// Len reports the number of stored entries (present + swapped; a huge mapping
// counts as one).
func (pt *PageTable) Len() int { return pt.n }

// HugeMappings reports how many huge entries the table holds.
func (pt *PageTable) HugeMappings() int { return pt.hugeHeads }

// leaf walks to the leaf spanning vpn, nil if nothing was ever stored in its
// run. Callers copy the one PTE they want out of it, once.
func (pt *PageTable) leaf(vpn VPN) *ptLeaf {
	if vpn >= maxVPN {
		return nil
	}
	mid := pt.root[vpn>>(3*ptFanBits)]
	if mid == nil {
		return nil
	}
	dir := mid[vpn>>(2*ptFanBits)%ptFan]
	if dir == nil {
		return nil
	}
	return dir[vpn>>ptFanBits%ptFan]
}

// ensureLeaf is leaf for writers: it allocates the path on the way down.
func (pt *PageTable) ensureLeaf(vpn VPN) *ptLeaf {
	if vpn >= maxVPN {
		panic(fmt.Sprintf("mem: vpn %#x beyond the page table's %d-bit page-number space", uint64(vpn), 4*ptFanBits))
	}
	mid := grow(&pt.root[vpn>>(3*ptFanBits)])
	dir := grow(&mid[vpn>>(2*ptFanBits)%ptFan])
	return grow(&dir[vpn>>ptFanBits%ptFan])
}

func grow[T any](slot **T) *T {
	if *slot == nil {
		*slot = new(T)
	}
	return *slot
}

// hugeLeaf returns the leaf of the huge run headed at head, nil if none is.
func (pt *PageTable) hugeLeaf(head VPN) *ptLeaf {
	if l := pt.leaf(head); l != nil && head%HugePages == 0 && l.ptes[0].Huge {
		return l
	}
	return nil
}

func (pt *PageTable) mustHugeLeaf(op string, head VPN) *ptLeaf {
	l := pt.hugeLeaf(head)
	if l == nil {
		panic(fmt.Sprintf("mem: %s at vpn %d: no huge entry", op, head))
	}
	return l
}

// Lookup fetches the entry for vpn. Page numbers inside a huge run answer
// with a synthesized entry: the head's flags and the frame at the matching
// offset into the backing block, with Huge set so callers can tell. A carved
// subpage is NOT covered: it has its own base entry (or none) and behaves
// like any base page for Lookup/Set/Delete.
func (pt *PageTable) Lookup(vpn VPN) (e PTE, ok bool) {
	l := pt.leaf(vpn)
	if l == nil {
		return e, false
	}
	i := vpn % HugePages
	if l.has(i) {
		return l.ptes[i], true
	}
	if l.covers(i) {
		// The head, its frame moved to the subpage's. Frame is rewritten
		// together with SwapSlot so the compiler emits one 8-byte store: a
		// 4-byte patch leaves the caller's copy reloading a word from two
		// stores, a stall that doubles the cost of every lookup under THP.
		e = l.ptes[0]
		w := uint64(e.Frame+FrameID(i)) | uint64(e.SwapSlot)<<32
		e.Frame, e.SwapSlot = FrameID(w), uint32(w>>32)
		return e, true
	}
	return e, false
}

// Set installs or replaces the entry for vpn. Installing a base entry inside
// an existing huge run is a bug in the caller (the run must be split first)
// and panics; replacing a huge head with a non-huge entry likewise. A huge
// entry may only rewrite an existing head — InstallHuge creates one.
func (pt *PageTable) Set(vpn VPN, e PTE) {
	l, i := pt.ensureLeaf(vpn), vpn%HugePages
	switch {
	case e.Huge && (i != 0 || !l.ptes[0].Huge):
		panic(fmt.Sprintf("mem: huge PTE at vpn %d, which heads no huge run", vpn))
	case !e.Huge && l.covers(i):
		panic(fmt.Sprintf("mem: base PTE at vpn %d inside huge run headed at %d", vpn, HugeAlign(vpn)))
	}
	old, existed := l.put(i, e)
	pt.present += pteResident(e)
	if existed {
		pt.present -= pteResident(old)
	} else {
		pt.n++
	}
}

// Delete removes the entry for vpn, reporting whether it existed. Deleting
// inside a huge run (including its head) panics — split the run first, then
// delete the base entries.
func (pt *PageTable) Delete(vpn VPN) (PTE, bool) {
	l := pt.leaf(vpn)
	if l == nil {
		return PTE{}, false
	}
	i := vpn % HugePages
	if l.covers(i) {
		panic(fmt.Sprintf("mem: delete of vpn %d inside huge run headed at %d", vpn, HugeAlign(vpn)))
	}
	return pt.drop(l, i)
}

// drop empties slot i of l, keeping the table's counters in step.
func (pt *PageTable) drop(l *ptLeaf, i VPN) (PTE, bool) {
	old, existed := l.ptes[i], l.has(i)
	if existed {
		l.ptes[i] = PTE{}
		l.stored[i/64] &^= 1 << (i % 64)
		pt.n--
		pt.present -= pteResident(old)
	}
	return old, existed
}

// InstallHuge collapses the run headed at the aligned vpn into one huge
// entry backed by the frame block at base: any stored base entries in the
// run are dropped and replaced by the single huge head.
func (pt *PageTable) InstallHuge(vpn VPN, e PTE) {
	if vpn%HugePages != 0 {
		panic(fmt.Sprintf("mem: InstallHuge at unaligned vpn %d", vpn))
	}
	l := pt.ensureLeaf(vpn)
	if l.ptes[0].Huge {
		panic(fmt.Sprintf("mem: InstallHuge over existing huge run at %d", vpn))
	}
	for i := VPN(0); i < HugePages; i++ {
		pt.drop(l, i)
	}
	e.Huge = true
	l.put(0, e)
	pt.n++
	pt.present += HugePages
	pt.hugeHeads++
	// A fresh collapse starts with clean per-subpage state (no carve-outs,
	// no heat history from a previous life of this address range).
	l.dropFine()
}

// SplitHuge dissolves the huge entry headed at vpn into HugePages base
// entries pointing at consecutive frames, preserving the head's flags. The
// backing frames must already have been released from their block (see
// PhysMem.SplitHugeBlock). Resident count is unchanged.
func (pt *PageTable) SplitHuge(vpn VPN) {
	l := pt.mustHugeLeaf("SplitHuge", vpn)
	e := l.ptes[0]
	e.Huge = false
	// Carved subpages already own base entries (possibly remapped elsewhere
	// by COW or merging) and are left alone.
	for i := VPN(0); i < HugePages; i++ {
		if l.isCarved(i) {
			continue
		}
		sub := e
		sub.Frame = e.Frame + FrameID(i)
		l.put(i, sub)
	}
	pt.n += HugePages - 1 - l.ncarved
	pt.hugeHeads--
	l.dropFine()
	// present is unchanged: the head's contribution is replaced one-for-one
	// by the fanned-out entries, and carved entries already counted themselves.
}

// SplitHugeSubpages carves the given subpages out of the huge run headed at
// head: each one gets a real base PTE pointing at its frame within the
// backing block, while the remainder of the run stays huge. The caller must
// first release the matching frames from the block (PhysMem.ReleaseHugeFrame)
// so they become ordinary refcounted frames. The head subpage (offset 0)
// cannot be carved — it anchors the huge entry.
func (pt *PageTable) SplitHugeSubpages(head VPN, vpns []VPN) {
	l := pt.mustHugeLeaf("SplitHugeSubpages", head)
	for _, vpn := range vpns {
		off := vpn - head
		if vpn <= head || off >= HugePages || l.isCarved(off) {
			panic(fmt.Sprintf("mem: SplitHugeSubpages vpn %d already carved or outside run headed at %d", vpn, head))
		}
		sub := l.ptes[0]
		sub.Huge = false
		sub.Frame += FrameID(off)
		l.carved[off/64] |= 1 << (off % 64)
		l.ncarved++
		// Bookkeeping contract: the head keeps contributing HugePages to
		// present, standing in for resident carved base entries, which are
		// therefore installed without counting. Later mutations of the base
		// entry (swap-out, delete) adjust present normally, keeping the
		// total equal to the true resident page count.
		l.put(off, sub)
		pt.n++
	}
	// A fresh carve restarts the quiesce clock: re-promotion must wait for
	// a full quiet window after the most recent demotion.
	if l.heat != nil {
		l.heat.quiet = 0
	}
}

// UncarveSubpage re-absorbs one carved subpage into the huge run headed at
// head: the base entry (if any) is dropped and the head's coverage of the
// subpage resumes. The caller must have restored the matching frame into the
// backing block first (PhysMem.ReclaimHugeFrame).
func (pt *PageTable) UncarveSubpage(head, vpn VPN) {
	l := pt.mustHugeLeaf("UncarveSubpage", head)
	off := vpn - head
	if vpn <= head || off >= HugePages || !l.isCarved(off) {
		panic(fmt.Sprintf("mem: UncarveSubpage vpn %d not carved from run at %d", vpn, head))
	}
	pt.drop(l, off)
	l.carved[off/64] &^= 1 << (off % 64)
	l.ncarved--
	// The subpage is resident again through the head's coverage.
	pt.present++
}

// CarvedCount reports how many subpages have been carved out of the huge run
// headed at head (0 when the head is not huge or nothing is carved).
func (pt *PageTable) CarvedCount(head VPN) int {
	if l := pt.hugeLeaf(head); l != nil {
		return l.ncarved
	}
	return 0
}

// CarvedAt reports whether vpn is a carved subpage of a live huge run.
func (pt *PageTable) CarvedAt(vpn VPN) bool {
	l := pt.leaf(vpn)
	return l != nil && l.isCarved(vpn%HugePages)
}

// CarvedSubpages returns the carved subpage VPNs of the run headed at head,
// ascending.
func (pt *PageTable) CarvedSubpages(head VPN) []VPN {
	l := pt.hugeLeaf(head)
	if l == nil || l.ncarved == 0 {
		return nil
	}
	out := make([]VPN, 0, l.ncarved)
	for k, w := range l.carved {
		for ; w != 0; w &= w - 1 {
			out = append(out, head+VPN(k*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// NoteSubpageDirty feeds one dirty-log event into the per-subpage heat
// counter of the huge run covering vpn (carved subpages included — their
// heat still matters for the re-promotion decision). A no-op when vpn is
// not inside a huge run.
func (pt *PageTable) NoteSubpageDirty(vpn VPN) {
	l := pt.hugeLeaf(HugeAlign(vpn))
	if l == nil {
		return
	}
	if c := &l.ensureHeat().count[vpn%HugePages]; *c < ^uint16(0) {
		*c++
	}
}

// SubpageHeat reports the current heat counter for vpn's slot in the huge
// run covering it (0 when there is no huge run or no recorded writes).
func (pt *PageTable) SubpageHeat(vpn VPN) uint16 {
	if l := pt.leaf(vpn); l != nil && l.heat != nil {
		return l.heat.count[vpn%HugePages]
	}
	return 0
}

// SubpageHeats returns a snapshot of the per-subpage heat counters for the
// huge entry headed at head.
func (pt *PageTable) SubpageHeats(head VPN) [HugePages]uint16 {
	if l := pt.hugeLeaf(head); l != nil && l.heat != nil {
		return l.heat.count
	}
	return [HugePages]uint16{}
}

// DecaySubpageHeat halves every heat counter of the run headed at head (the
// EWMA step) and advances the age/quiet clocks, returning their new values.
// The FHPM daemon calls this once per visit: age gates demotion (give a new
// block time to show heat), quiet gates re-promotion (the block has had no
// writes for that many consecutive visits).
func (pt *PageTable) DecaySubpageHeat(head VPN) (age, quiet int) {
	h := pt.mustHugeLeaf("DecaySubpageHeat", head).ensureHeat()
	total := 0
	for i := range h.count {
		total += int(h.count[i])
		h.count[i] >>= 1
	}
	if h.age < ^uint8(0) {
		h.age++
	}
	if total == 0 {
		if h.quiet < ^uint8(0) {
			h.quiet++
		}
	} else {
		h.quiet = 0
	}
	return int(h.age), int(h.quiet)
}

// Range calls fn for every stored entry in ascending VPN order, stopping
// early if fn returns false. Huge runs are visited once via their head
// entry. fn may Set the entry it is visiting (or any other existing one):
// each bitmap word is taken by value before calling out, and each PTE is
// read when its turn comes.
func (pt *PageTable) Range(fn func(vpn VPN, e PTE) bool) {
	for a, mid := range &pt.root {
		if mid == nil {
			continue
		}
		for b, dir := range mid {
			if dir == nil {
				continue
			}
			for c, l := range dir {
				if l == nil {
					continue
				}
				base := VPN((a<<ptFanBits|b)<<ptFanBits|c) << ptFanBits
				for k, w := range l.stored {
					for ; w != 0; w &= w - 1 {
						i := k*64 + bits.TrailingZeros64(w)
						if !fn(base+VPN(i), l.ptes[i]) {
							return
						}
					}
				}
			}
		}
	}
}

// SortedVPNs returns all stored page numbers in ascending order (huge runs
// contribute only their head).
func (pt *PageTable) SortedVPNs() []VPN {
	vpns := make([]VPN, 0, pt.n)
	pt.Range(func(vpn VPN, _ PTE) bool {
		vpns = append(vpns, vpn)
		return true
	})
	return vpns
}

// PresentCount reports how many pages are resident (not swapped), counting a
// huge mapping as HugePages pages, in O(1).
func (pt *PageTable) PresentCount() int { return pt.present }

// pteResident is the number of resident pages an entry contributes.
func pteResident(e PTE) int {
	if e.Swapped {
		return 0
	}
	if e.Huge {
		return HugePages
	}
	return 1
}

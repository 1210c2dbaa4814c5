// The merge pipeline: one decision per page, run on one of two schedules.
//
// Every scanned page is a candidate, collected serially in scan order (the
// linear cursor walk or the incremental queue pop), and goes through three
// steps:
//
//  1. classify: resolve the PTE, settle the terminal verdicts (not resident,
//     already shared, huge-mapped with no split policy), read the content
//     checksum, route the page to its shard and take the volatility-gate
//     decision. Nothing but the candidate is written (through a view, not
//     even the pool's checksum cache).
//  2. decide: the stable-index lookup, then the walk of the checksum's unstable
//     bucket. Only shard-owned structures (and, under a split policy, the huge
//     mapping a verified duplicate sits in) mutate here; refcounts, remaps,
//     write-protects, KSM flags, statistics and gate writes are recorded on
//     the candidate.
//  3. apply: the recorded effects, always in scan order.
//
// Config.Shards > 1 splits the mutable merge state — the stable and the
// unstable index — into disjoint shards routed by checksum % shards. Because
// a candidate can only ever interact with content of its own checksum (a
// stable hit or an unstable partner is byte-identical, hence
// checksum-identical), every lookup, insert and removal a candidate performs
// lands in one shard, and workers pinned to distinct shards never contend.
//
// processBatch picks the schedule from what it can see. Inline — one shard, a
// batch under minParallelBatch, or a huge-split policy, whose splits rewrite
// PTE ranges that cross checksum shards — each candidate is classified,
// decided and applied through the pool before the next is touched. Fanned
// out, classify runs striped by index over the shards' read-only mem.ROViews,
// one worker per shard with work then decides its candidates in batch order
// through its view, and apply follows serially. Two worker-local overlays —
// pendKSM (frames promoted earlier in this batch) and pendRemap (pages
// remapped earlier in this batch) — stand in for the effects not yet applied;
// they suffice because every such interaction is same-checksum and therefore
// same-shard. Either way apply sees the same verdicts in the same order, so
// merge outcomes and statistics depend on neither the shard count nor the
// worker interleaving. DESIGN.md §5f covers the invariants in detail.
package ksm

import (
	"sync"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// contentReader is how the pipeline reads frame content: *mem.PhysMem on the
// inline schedule, a *mem.ROView for shard workers, whose concurrent reads
// must never touch pool state. Materialize interns a seeded frame's bytes — at
// once through the pool, when processBatch repays the fills through a view.
type contentReader interface {
	Checksum(id mem.FrameID) uint64
	Equal(a, b mem.FrameID) bool
	Materialize(id mem.FrameID)
}

// minParallelBatch is the smallest batch fanned out to shard workers; below
// it goroutine dispatch costs more than the scan work. A package variable so
// tests can force the pool on small fixtures.
var minParallelBatch = 256

// scanShard owns one checksum-bucket partition of the merge state.
type scanShard struct {
	stable    *stableIndex
	unstable  map[uint64][]unstableEntry
	unstableN int
	// arena backs the first entry of every bucket recorded in linear mode, in
	// fixed chunks; arenaN counts the slots handed out since dropUnstable last
	// rewound it. Most buckets never hold a second entry, so a pass that
	// re-records every unshared page allocates nothing.
	arena  [][]unstableEntry
	arenaN int
	// scanned counts candidates routed into this shard (volatility gate and
	// beyond), each visit once — per-shard telemetry, identical on both
	// schedules.
	scanned uint64

	// view is the worker's read-only content accessor; pendKSM and pendRemap
	// are the overlays described in the package comment, empty outside a
	// worker's run.
	view      *mem.ROView
	pendKSM   map[mem.FrameID]struct{}
	pendRemap map[pageKey]mem.FrameID
}

func newScanShard(pm *mem.PhysMem) *scanShard {
	return &scanShard{
		stable:    newStableIndex(),
		unstable:  make(map[uint64][]unstableEntry),
		view:      pm.NewROView(),
		pendKSM:   make(map[mem.FrameID]struct{}),
		pendRemap: make(map[pageKey]mem.FrameID),
	}
}

// unstableChunk is the arena's chunk size in entries (24 KiB a chunk).
const unstableChunk = 1024

// record appends ent to its checksum's bucket in shard s, given the bucket as
// read. An empty bucket's backing is carved from the arena with capacity one,
// so a second entry moves the bucket to the heap instead of overwriting its
// neighbour. The retained index of incremental mode is never rewound and
// takes its backing from the heap, as every bucket used to.
func (k *KSM) record(s *scanShard, bucket []unstableEntry, ent unstableEntry) {
	if !k.incremental && cap(bucket) == 0 {
		chunk, off := s.arenaN/unstableChunk, s.arenaN%unstableChunk
		if chunk == len(s.arena) {
			s.arena = append(s.arena, make([]unstableEntry, unstableChunk))
		}
		bucket = s.arena[chunk][off : off : off+1]
		s.arenaN++
	}
	s.unstable[ent.checksum] = append(bucket, ent)
	s.unstableN++
}

// dropUnstable empties every shard's unstable index in place — the map keeps
// its buckets and the arena its chunks for the next pass to refill.
func (k *KSM) dropUnstable() {
	for _, s := range k.shards {
		clear(s.unstable)
		s.unstableN = 0
		s.arenaN = 0
	}
}

// shardOf routes a content checksum to its owning shard.
func (k *KSM) shardOf(sum uint64) *scanShard {
	return k.shards[int(sum%uint64(len(k.shards)))]
}

// unstableTotal sums unstable entries across shards (telemetry, compaction
// trigger).
func (k *KSM) unstableTotal() int {
	t := 0
	for _, s := range k.shards {
		t += s.unstableN
	}
	return t
}

// stableSize sums stable frames across shards.
func (k *KSM) stableSize() int {
	t := 0
	for _, s := range k.shards {
		t += s.stable.size
	}
	return t
}

// removeStable drops a frame from its owning shard's index. Stable content is
// write-protected, so its checksum is still the one it was routed and keyed by.
func (k *KSM) removeStable(f mem.FrameID) bool {
	sum := k.host.Phys().Checksum(f)
	return k.shardOf(sum).stable.remove(f, sum)
}

// scanVerdict is a candidate's outcome, settled in classify or decide and
// carried out by apply.
type scanVerdict uint8

const (
	vPending scanVerdict = iota // classified and through the gate, awaiting decide
	vNotResident
	vAlreadyShared
	vHugeSkip // a huge mapping hides the page and no split recovers it
	vGateSkip
	vStableMerge
	vUnstableMerge
	vRecorded
)

// candidate is one page moving through the pipeline.
type candidate struct {
	vm   *hypervisor.VMProcess
	vpn  mem.VPN
	gate *regionGate // the page's volatility-gate table, resolved at collection

	// Filled by classify.
	frame     mem.FrameID
	sum       uint64
	shard     int32 // -1 unless routed (terminal verdicts stay unrouted)
	verdict   scanVerdict
	gateWrite bool
	huge      bool // huge-mapped under a split policy: split once a duplicate is verified

	// Filled by decide.
	partner     pageKey     // vUnstableMerge: the promoted entry's page
	target      mem.FrameID // merge target frame
	hashRejects uint32      // bucket entries rejected by byte verification
	hugeSkips   uint32      // bucket entries forgone because the partner stays huge
}

// processBatch runs one batch of candidates through the pipeline on the
// schedule the package comment describes. The candidates must be distinct
// pages in scan order, collected while no guest ran (the simulator is
// event-driven, so page contents are frozen between scanner wake-ups).
// incremental selects the incremental-mode bookkeeping (IncrementalScanned,
// gate-skip deferrals, which incremental mode needs to schedule the revisit a
// linear pass gets for free); linear callers pass false even for the
// pass-straddling page scanned right after a mode switch.
func (k *KSM) processBatch(cands []candidate, incremental bool) {
	if len(cands) == 0 {
		return
	}
	pm := k.host.Phys()
	if len(k.shards) > 1 && !k.hugeSplitting() && len(cands) >= minParallelBatch {
		k.classifyCandidates(cands)
		k.runShardWorkers(cands)
		// Repay the views' reads before anything is applied — the frames they
		// regenerated are all still live here, and applying can free frames —
		// so the pool's compute-once caches are warm for later batches.
		for _, s := range k.shards {
			for _, f := range s.view.Fills() {
				pm.Materialize(f)
			}
			s.view.ResetFills()
		}
		for i := range cands {
			c := &cands[i]
			if c.shard >= 0 {
				pm.AdoptChecksum(c.frame, c.sum)
			}
			k.apply(c)
		}
	} else {
		for i := range cands {
			c := &cands[i]
			k.classifyOne(c, pm)
			if c.verdict == vPending {
				k.decide(k.shards[c.shard], c, pm)
			}
			k.apply(c)
		}
	}
	k.stats.PagesScanned += uint64(len(cands))
	if incremental {
		k.stats.IncrementalScanned += uint64(len(cands))
		for i := range cands {
			if c := &cands[i]; c.verdict == vGateSkip {
				k.deferVolatile(pageKey{vm: c.vm, vpn: c.vpn})
			}
		}
	}
}

// classifyCandidates is classify fanned out, striped across the worker views
// by candidate index; each goroutine writes only its own slice of candidates.
func (k *KSM) classifyCandidates(cands []candidate) {
	nw := len(k.shards)
	chunk := (len(cands) + nw - 1) / nw
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * chunk
		if lo >= len(cands) {
			break
		}
		hi := lo + chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		wg.Add(1)
		go func(part []candidate, view *mem.ROView) {
			defer wg.Done()
			for i := range part {
				k.classifyOne(&part[i], view)
			}
		}(cands[lo:hi], k.shards[w].view)
	}
	wg.Wait()
}

// classifyOne is step 1 for one candidate. Through a view it is strictly
// read-only on pool, page-table and scanner state, so any number may run at
// once.
func (k *KSM) classifyOne(c *candidate, r contentReader) {
	pte, ok := c.vm.ResidentPTE(c.vpn)
	if !ok {
		c.verdict = vNotResident
		return
	}
	c.frame = pte.Frame
	if k.host.Phys().IsKSM(c.frame) {
		c.verdict = vAlreadyShared
		return
	}
	if pte.Huge {
		if !k.hugeSplitting() {
			c.verdict = vHugeSkip // THP hides the page from merging
			return
		}
		// Same gate and lookups as a base page: splitting a huge page for a
		// still-changing subpage would only trade TLB reach for a merge that
		// breaks right back.
		c.huge = true
	}
	c.sum = r.Checksum(c.frame)
	c.shard = int32(c.sum % uint64(len(k.shards)))
	if k.cfg.ChecksumGate {
		last, seen := c.gate.last(c.vpn)
		c.gateWrite = true
		if !seen || last != c.sum {
			c.verdict = vGateSkip
			return
		}
	}
	c.verdict = vPending
}

// runShardWorkers fans the routed candidates out to one worker per shard
// with work. Gate-skipped candidates are routed too: a frame promoted
// earlier in the batch must flip them to already-shared, since classify's
// IsKSM check precedes the gate.
func (k *KSM) runShardWorkers(cands []candidate) {
	if k.shardIdx == nil {
		k.shardIdx = make([][]int32, len(k.shards))
	}
	for i := range k.shardIdx {
		k.shardIdx[i] = k.shardIdx[i][:0]
	}
	for i := range cands {
		if c := &cands[i]; c.shard >= 0 {
			k.shardIdx[c.shard] = append(k.shardIdx[c.shard], int32(i))
		}
	}
	busy := 0
	last := 0
	for si, idxs := range k.shardIdx {
		if len(idxs) > 0 {
			busy++
			last = si
		}
	}
	if busy == 0 {
		return
	}
	if busy == 1 {
		k.runShardWorker(k.shards[last], cands, k.shardIdx[last])
		return
	}
	var wg sync.WaitGroup
	for si, idxs := range k.shardIdx {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *scanShard, idxs []int32) {
			defer wg.Done()
			k.runShardWorker(s, cands, idxs)
		}(k.shards[si], idxs)
	}
	wg.Wait()
}

// runShardWorker decides one shard's candidates in batch order, entering each
// merge in the overlays where apply would have changed the pool.
func (k *KSM) runShardWorker(s *scanShard, cands []candidate, idxs []int32) {
	for _, i := range idxs {
		c := &cands[i]
		k.decide(s, c, s.view)
		switch c.verdict {
		case vUnstableMerge:
			s.pendKSM[c.target] = struct{}{}
			fallthrough
		case vStableMerge:
			s.pendRemap[pageKey{vm: c.vm, vpn: c.vpn}] = c.target
		}
	}
	clear(s.pendKSM)
	clear(s.pendRemap)
}

// decide is step 2 for one routed candidate, against its shard s through
// reader r. The overlays answer for merges earlier candidates of a fanned-out
// batch still owe; inline they are empty and the pool itself is current.
func (k *KSM) decide(s *scanShard, c *candidate, r contentReader) {
	if _, pend := s.pendKSM[c.frame]; pend {
		// An earlier candidate in this batch promoted this very frame (two
		// pages COW-sharing it). Applied first, the promotion would have
		// stopped classify at its IsKSM check, ahead of checksum and gate:
		// the page was never routed.
		c.verdict, c.gateWrite, c.shard = vAlreadyShared, false, -1
		return
	}
	if c.verdict == vGateSkip {
		return // routed only for the override above
	}

	// Stable index first. Byte-identical content has an identical checksum,
	// so any stable frame matching this page lives in this shard's index.
	if stableFrame, hit := s.stable.lookup(r, c.frame, c.sum); hit {
		if c.huge && !k.splitHugeFor(c.vm, c.vpn) {
			c.verdict = vHugeSkip
			return
		}
		c.verdict, c.target = vStableMerge, stableFrame
		return
	}

	// Unstable index.
	pm := k.host.Phys()
	key := pageKey{vm: c.vm, vpn: c.vpn}
	bucket := s.unstable[c.sum]
	selfSeen := false
	for bi, ent := range bucket {
		if ent.key == key {
			// The retained index of incremental mode can already hold this
			// page from an earlier round (a linear pass drops the index
			// before a page is ever revisited, so this never fires there).
			selfSeen = true
			continue
		}
		// A partner remapped earlier in this batch resolves to its new
		// stable frame and is skipped as stale below.
		other, remapped := s.pendRemap[ent.key]
		otherHuge := false
		if !remapped {
			otherPTE, ok := ent.key.vm.ResidentPTE(ent.key.vpn)
			if !ok {
				continue
			}
			other, otherHuge = otherPTE.Frame, otherPTE.Huge
		}
		if _, pend := s.pendKSM[other]; pend || pm.IsKSM(other) || r.Checksum(other) != ent.checksum {
			// Stale: the page went away, was merged via another path — a
			// partner already promoted to the stable index still
			// checksum-matches through its old entry, and that index is the
			// only authority on stable content — or was rewritten since it
			// was recorded.
			continue
		}
		if !r.Equal(c.frame, other) {
			c.hashRejects++
			continue
		}
		// A verified duplicate. Whichever side a huge mapping covers is
		// recovered from it as the split policy allows — the candidate
		// first; where the policy leaves a mapping intact, THP wins and the
		// merge is forgone.
		if c.huge {
			if !k.splitHugeFor(c.vm, c.vpn) {
				c.verdict = vHugeSkip
				return
			}
			c.huge = false
			// A whole-block split of a run the partner sits in as well has
			// just made it a base page.
			otherPTE, _ := ent.key.vm.ResidentPTE(ent.key.vpn)
			otherHuge = otherPTE.Huge
		}
		if otherHuge && !k.splitHugeFor(ent.key.vm, ent.key.vpn) {
			c.hugeSkips++
			continue
		}
		// Promote the partner to a stable page and merge the candidate
		// into it.
		s.stable.insert(r, other, c.sum)
		c.verdict, c.partner, c.target = vUnstableMerge, ent.key, other
		s.unstable[c.sum] = append(bucket[:bi], bucket[bi+1:]...)
		s.unstableN--
		return
	}
	if !selfSeen {
		// A huge-mapped page is recorded like any other: duplicates that are
		// huge-mapped in every VM could never find each other otherwise.
		k.record(s, bucket, unstableEntry{key: key, checksum: c.sum})
	}
	c.verdict = vRecorded
}

// apply is step 3: one candidate's verdict carried out on the pool, the page
// tables, the gate and the statistics. Both schedules call it in scan order.
func (k *KSM) apply(c *candidate) {
	if c.shard >= 0 {
		k.shards[c.shard].scanned++
	}
	if c.gateWrite {
		c.gate.record(c.vpn, c.sum)
	}
	pm := k.host.Phys()
	switch c.verdict {
	case vNotResident:
		k.stats.NotResident++
	case vAlreadyShared:
		k.stats.AlreadyShared++
	case vHugeSkip:
		k.stats.HugeSkips++
	case vGateSkip:
		k.stats.ChecksumSkips++
	case vStableMerge:
		pm.IncRef(c.target)
		c.vm.RemapShared(c.vpn, c.target)
		k.stats.StableMerges++
	case vUnstableMerge:
		pm.SetKSM(c.target, true)
		c.partner.vm.WriteProtect(c.partner.vpn)
		pm.IncRef(c.target) // the stable index's reference
		pm.IncRef(c.target)
		c.vm.RemapShared(c.vpn, c.target)
		k.stats.UnstableMerges++
	}
	k.stats.HashRejects += uint64(c.hashRejects)
	k.stats.HugeSkips += uint64(c.hugeSkips)
}

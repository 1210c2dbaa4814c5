// Sharded scanning: the merge pipeline partitioned by checksum bucket.
//
// Config.Shards > 1 splits the scanner's mutable merge state — the stable
// treap and the unstable index — into disjoint shards routed by
// checksum % shards. Because a candidate can only ever interact with content
// of its own checksum (a stable hit or an unstable partner is byte-identical,
// hence checksum-identical), every lookup, insert and removal a candidate
// performs lands in one shard, and workers pinned to distinct shards never
// contend.
//
// A scan chunk is processed in batches through four phases:
//
//  1. collect (serial): the linear cursor walk or the incremental queue pop
//     gathers candidate (vm, vpn) pairs in scan order — the same order the
//     unsharded scanner visits them.
//  2. classify (parallel, striped by index): each candidate resolves its PTE
//     and computes its content checksum through a read-only mem.ROView;
//     terminal verdicts (not resident, already shared, huge-skip) and the
//     volatility gate are decided here. No pool, page-table or scanner state
//     is written.
//  3. merge (parallel, one worker per shard with work): each worker runs the
//     stable-lookup / unstable-partner pipeline for its shard's candidates in
//     batch order, eagerly mutating only shard-owned structures. Global
//     effects (refcounts, remaps, write-protects, KSM flags, stats, gate
//     writes) are recorded on the candidate. Two worker-local overlays —
//     pendKSM (frames promoted earlier in this batch) and pendRemap (pages
//     remapped earlier in this batch) — reproduce exactly the mid-batch state
//     the serial scanner would observe; they suffice because every such
//     interaction is same-checksum and therefore same-shard.
//  4. commit (serial, batch order): verdicts are applied in candidate order,
//     so the page-table, refcount and statistics mutation stream is
//     byte-for-byte the one the serial scanner emits. Frame allocation and
//     free order — which every figure depends on — is therefore independent
//     of both the shard count and the worker interleaving.
//
// The huge-splitting policies (Config.SplitHugePages and
// Config.PartialSplitHuge) rewrite PTE ranges that can cross checksum shards
// mid-scan, so batches run through the serial path whenever either is
// enabled — still routed through the sharded structures, with identical
// outcomes. DESIGN.md §5f covers the invariants in detail.
package ksm

import (
	"sync"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// minParallelBatch is the smallest batch fanned out to shard workers; below
// it goroutine dispatch costs more than the scan work. A package variable so
// tests can force the pool on small fixtures.
var minParallelBatch = 256

// scanShard owns one checksum-bucket partition of the merge state.
type scanShard struct {
	stable    *stableTreap
	unstable  map[uint64][]unstableEntry
	unstableN int
	// arena backs the first entry of every bucket recorded in linear mode, in
	// fixed chunks; arenaN counts the slots handed out since dropUnstable last
	// rewound it. Most buckets never hold a second entry, so a pass that
	// re-records every unshared page allocates nothing.
	arena  [][]unstableEntry
	arenaN int
	// scanned counts candidates routed into this shard's merge pipeline
	// (volatility gate and beyond) — per-shard telemetry, identical whether
	// the batch ran parallel or serial.
	scanned uint64

	// view is the worker's read-only content accessor; pendKSM and pendRemap
	// are the per-batch overlays described in the package comment.
	view      *mem.ROView
	pendKSM   map[mem.FrameID]struct{}
	pendRemap map[pageKey]mem.FrameID
}

func newScanShard(pm *mem.PhysMem, idx int) *scanShard {
	return &scanShard{
		stable:   newStableTreap(idx),
		unstable: make(map[uint64][]unstableEntry),
		view:     pm.NewROView(),
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

// stableSize sums stable-tree nodes across shards.
func (k *KSM) stableSize() int {
	t := 0
	for _, s := range k.shards {
		t += s.stable.size
	}
	return t
}

// stableFramesOrdered returns every stable frame in global content-key order
// — the order the single treap of an unsharded scanner yields — by k-way
// merging the per-shard trees' ordered walks. Prune and unmerge iterate it
// so the frame-free order (which feeds allocation order, which feeds every
// figure) is independent of the shard count. Equal content cannot appear in
// two shards (same bytes ⇒ same checksum ⇒ same shard), so the merge never
// ties.
func (k *KSM) stableFramesOrdered() []mem.FrameID {
	if len(k.shards) == 1 {
		return k.shards[0].stable.frames()
	}
	pm := k.host.Phys()
	var lists [][]mem.FrameID
	total := 0
	for _, s := range k.shards {
		if fr := s.stable.frames(); len(fr) > 0 {
			lists = append(lists, fr)
			total += len(fr)
		}
	}
	out := make([]mem.FrameID, 0, total)
	for len(lists) > 0 {
		best := 0
		for i := 1; i < len(lists); i++ {
			if pm.Compare(lists[i][0], lists[best][0]) < 0 {
				best = i
			}
		}
		out = append(out, lists[best][0])
		if lists[best] = lists[best][1:]; len(lists[best]) == 0 {
			lists = append(lists[:best], lists[best+1:]...)
		}
	}
	return out
}

// removeStable drops a frame from its owning shard's tree. Stable content is
// write-protected, so its checksum still matches the routing key it was
// inserted under.
func (k *KSM) removeStable(f mem.FrameID) bool {
	pm := k.host.Phys()
	return k.shardOf(pm.Checksum(f)).stable.remove(pm, f)
}

// scanVerdict is a candidate's outcome, decided in classify or merge and
// applied in commit.
type scanVerdict uint8

const (
	vPending scanVerdict = iota // awaiting the merge pipeline
	vNotResident
	vAlreadyShared
	vHugeSkip
	vGateSkip
	vStableMerge
	vUnstableMerge
	vRecorded
)

// candidate is one page moving through the batch pipeline.
type candidate struct {
	vm   *hypervisor.VMProcess
	vpn  mem.VPN
	gate *regionGate // the page's volatility-gate table, resolved at collection

	// Filled by classify.
	frame     mem.FrameID
	sum       uint64
	shard     int32 // -1 until routed (terminal verdicts stay unrouted)
	verdict   scanVerdict
	gateWrite bool

	// Filled by the merge worker.
	partner     pageKey     // vUnstableMerge: the promoted entry's page
	target      mem.FrameID // merge target frame
	hashRejects uint32      // bucket entries rejected by byte verification
	hugeSkips   uint32      // bucket entries forgone because the partner went huge
}

// processBatch runs one batch of candidates through the merge pipeline. The
// candidates must be distinct pages in scan order, collected while no guest
// ran (the simulator is event-driven, so page contents are frozen between
// scanner wake-ups). incremental selects the incremental-mode bookkeeping
// (IncrementalScanned, gate-skip deferrals); linear callers pass false even
// for the pass-straddling page scanned right after a mode switch, matching
// the serial scanner.
func (k *KSM) processBatch(cands []candidate, incremental bool) {
	if len(cands) == 0 {
		return
	}
	if len(k.shards) > 1 && !k.hugeSplitting() && len(cands) >= minParallelBatch {
		k.classifyCandidates(cands)
		k.runShardWorkers(cands)
		k.commitBatch(cands, incremental)
		return
	}
	// Serial path: single shard, tiny batch, or a huge-splitting policy
	// (whole or partial — either rewrites PTE ranges that cross shards
	// mid-batch). Same routed structures, same outcomes.
	for i := range cands {
		c := &cands[i]
		gateSkipped := k.scanPage(c.vm, c.vpn, c.gate)
		k.stats.PagesScanned++
		if incremental {
			k.stats.IncrementalScanned++
			if gateSkipped {
				k.deferVolatile(pageKey{vm: c.vm, vpn: c.vpn})
			}
		}
	}
}

// classifyCandidates is the parallel prepare phase: PTE resolution, terminal
// verdicts, checksum, shard routing and the volatility-gate decision, striped
// across the worker views by candidate index. Strictly read-only on pool,
// page-table and scanner state; each goroutine writes only its own slice of
// candidates.
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

func (k *KSM) classifyOne(c *candidate, view *mem.ROView) {
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
		// The parallel path never runs under the split policy, so a huge
		// mapping is always skipped outright.
		c.verdict = vHugeSkip
		return
	}
	c.sum = view.Checksum(c.frame)
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
// earlier in the batch must flip them to already-shared exactly as the
// serial scanner's IsKSM check (which precedes the gate) would have.
func (k *KSM) runShardWorkers(cands []candidate) {
	if k.shardIdx == nil {
		k.shardIdx = make([][]int32, len(k.shards))
	}
	for i := range k.shardIdx {
		k.shardIdx[i] = k.shardIdx[i][:0]
	}
	for i := range cands {
		if c := &cands[i]; c.verdict == vPending || c.verdict == vGateSkip {
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

func (k *KSM) runShardWorker(s *scanShard, cands []candidate, idxs []int32) {
	if s.pendKSM == nil {
		s.pendKSM = make(map[mem.FrameID]struct{})
		s.pendRemap = make(map[pageKey]mem.FrameID)
	} else {
		clear(s.pendKSM)
		clear(s.pendRemap)
	}
	s.view.ResetFills()
	pm := k.host.Phys()
	for _, i := range idxs {
		k.mergeCandidate(s, &cands[i], pm)
	}
}

// mergeCandidate runs phase 3 for one candidate: the exact scanPage pipeline
// against shard-owned structures plus the batch overlays, with all global
// effects deferred to the candidate record.
func (k *KSM) mergeCandidate(s *scanShard, c *candidate, pm *mem.PhysMem) {
	key := pageKey{vm: c.vm, vpn: c.vpn}
	if _, pend := s.pendKSM[c.frame]; pend {
		// An earlier candidate in this batch promoted this very frame (two
		// pages COW-sharing it): the serial scanner's IsKSM check fires
		// before the gate, so the gate write is cancelled too.
		c.verdict = vAlreadyShared
		c.gateWrite = false
		return
	}
	if c.verdict == vGateSkip {
		return // gate decided in classify; only the pendKSM override above could trump it
	}

	// Stable tree first.
	if stableFrame, hit := s.stable.lookup(s.view, c.frame); hit {
		c.verdict = vStableMerge
		c.target = stableFrame
		s.pendRemap[key] = stableFrame
		return
	}

	// Unstable index.
	bucket := s.unstable[c.sum]
	selfSeen := false
	for bi := range bucket {
		ent := bucket[bi]
		if ent.key == key {
			selfSeen = true
			continue
		}
		var otherFrame mem.FrameID
		var otherHuge bool
		if nf, remapped := s.pendRemap[ent.key]; remapped {
			// The partner page was remapped earlier in this batch; the
			// serial scanner would resolve it to its new stable frame and
			// skip it at the IsKSM test below.
			otherFrame = nf
		} else {
			otherPTE, ok := ent.key.vm.ResidentPTE(ent.key.vpn)
			if !ok {
				continue
			}
			otherFrame = otherPTE.Frame
			otherHuge = otherPTE.Huge
		}
		if _, pend := s.pendKSM[otherFrame]; pend || pm.IsKSM(otherFrame) {
			continue
		}
		if s.view.Checksum(otherFrame) != ent.checksum {
			continue
		}
		if !k.cfg.HashOnly && !s.view.Equal(c.frame, otherFrame) {
			c.hashRejects++
			continue
		}
		if otherHuge {
			// Sharded batches never run under the split policy, so the
			// verified duplicate is forgone (THP wins), as in scanPage.
			c.hugeSkips++
			continue
		}
		// Promote: shard-owned structures mutate eagerly; the frame-flag,
		// write-protect, refcount and remap effects commit serially.
		s.stable.insert(s.view, otherFrame)
		s.pendKSM[otherFrame] = struct{}{}
		s.pendRemap[key] = otherFrame
		c.verdict = vUnstableMerge
		c.partner = ent.key
		c.target = otherFrame
		bucket = append(bucket[:bi], bucket[bi+1:]...)
		s.unstable[c.sum] = bucket
		s.unstableN--
		return
	}
	if !selfSeen {
		k.record(s, bucket, unstableEntry{key: key, checksum: c.sum})
	}
	c.verdict = vRecorded
}

// commitBatch applies the batch in candidate (scan) order: exactly the
// mutation stream the serial scanner would have produced. Regenerated seeded
// reads are materialized first (their frames are all still live here;
// applying verdicts can free frames), restoring the pool's compute-once
// caches for later batches.
func (k *KSM) commitBatch(cands []candidate, incremental bool) {
	pm := k.host.Phys()
	for _, s := range k.shards {
		for _, f := range s.view.Fills() {
			pm.Materialize(f)
		}
		s.view.ResetFills()
	}
	for i := range cands {
		c := &cands[i]
		if c.shard >= 0 && c.verdict != vAlreadyShared {
			// The serial scanner's already-shared check fires before the
			// checksum, so a frame promoted mid-batch (pendKSM override)
			// never counts as routed work there; match it.
			k.shards[c.shard].scanned++
		}
		if c.gateWrite {
			c.gate.record(c.vpn, c.sum)
		}
		switch c.verdict {
		case vNotResident:
			k.stats.NotResident++
		case vAlreadyShared:
			k.stats.AlreadyShared++
		case vHugeSkip:
			k.stats.HugeSkips++
		case vGateSkip:
			pm.AdoptChecksum(c.frame, c.sum)
			k.stats.ChecksumSkips++
			if incremental {
				k.deferVolatile(pageKey{vm: c.vm, vpn: c.vpn})
			}
		case vStableMerge:
			pm.AdoptChecksum(c.frame, c.sum)
			pm.IncRef(c.target)
			c.vm.RemapShared(c.vpn, c.target)
			k.stats.StableMerges++
		case vUnstableMerge:
			pm.AdoptChecksum(c.frame, c.sum)
			k.stats.HashRejects += uint64(c.hashRejects)
			k.stats.HugeSkips += uint64(c.hugeSkips)
			// Same op order as scanPage: flag, protect, tree ref, map ref,
			// remap — DecRef order inside RemapShared feeds the free stack.
			pm.SetKSM(c.target, true)
			c.partner.vm.WriteProtect(c.partner.vpn)
			pm.IncRef(c.target)
			pm.IncRef(c.target)
			c.vm.RemapShared(c.vpn, c.target)
			k.stats.UnstableMerges++
		case vRecorded:
			pm.AdoptChecksum(c.frame, c.sum)
			k.stats.HashRejects += uint64(c.hashRejects)
			k.stats.HugeSkips += uint64(c.hugeSkips)
		}
		k.stats.PagesScanned++
		if incremental {
			k.stats.IncrementalScanned++
		}
	}
}

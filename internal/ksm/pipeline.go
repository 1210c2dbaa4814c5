// The merge pipeline: one decision per page.
//
// Every scanned page is a candidate, popped off the scan queue in scan order
// (collect), and goes through three steps before the next candidate is
// touched:
//
//  1. classify: resolve the PTE, settle the terminal verdicts (not resident,
//     already shared, huge-mapped with no split policy), read the content
//     checksum and take the volatility-gate decision.
//  2. decide: one probe of the checksum table, then the walk of the slot's
//     stable chain and of its unstable chain. Only the table (and, under a
//     split policy, the huge mapping a verified duplicate sits in) mutates
//     here; refcounts, remaps, write-protects, KSM flags, statistics and gate
//     writes are recorded on the candidate as its verdict.
//  3. apply: the verdict carried out.
package ksm

import (
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

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
	verdict   scanVerdict
	gateWrite bool
	huge      bool // huge-mapped under a split policy: split once a duplicate is verified

	// Filled by decide.
	partner     pageKey     // vUnstableMerge: the promoted entry's page
	target      mem.FrameID // merge target frame
	hashRejects uint32      // unstable entries rejected by byte verification
	hugeSkips   uint32      // unstable entries forgone because the partner stays huge
}

// collect pops up to budget pages off the scan queue, in scan order, as the
// next batch's candidates; all of them are collected before any is scanned.
// A linear round resets each VM's dirty ring as collection enters the VM:
// everything the ring holds is about to be visited anyway, so the cycle
// restarts, and at the switch to incremental mode each ring holds exactly the
// writes since the pass last reached the VM. Because the reset precedes the
// scans, what a huge split in the batch logs to a partner's ring is kept. A
// drained incremental round drops its backing array, which the popped ranges
// would otherwise pin across a converged idle phase.
func (k *KSM) collect(budget int) []candidate {
	if cap(k.candBuf) < budget {
		k.candBuf = make([]candidate, 0, budget)
	}
	cands := k.candBuf[:0]
	for len(cands) < budget && len(k.queue) > 0 {
		r := &k.queue[0]
		if !k.incRound && r.vm != k.ringVM {
			k.ringVM = r.vm
			dropped, overflowed := r.vm.ResetDirtyLog()
			k.observeDrain(r.vm, dropped, overflowed)
		}
		gate := k.gateFor(r.vm, r.start)
		end := min(r.end, r.start+mem.VPN(budget-len(cands)))
		for vpn := r.start; vpn < end; vpn++ {
			cands = append(cands, candidate{vm: r.vm, vpn: vpn, gate: gate})
		}
		if r.start = end; end == r.end {
			k.queue = k.queue[1:]
		}
	}
	if len(k.queue) == 0 && k.incRound {
		k.queue = nil
	}
	k.candBuf = cands
	return cands
}

// processBatch runs one batch of candidates through the pipeline, each
// classified, decided and applied before the next. The candidates must be
// distinct pages in scan order, collected while no guest ran (the simulator
// is event-driven, so page contents are frozen between scanner wake-ups). A
// batch from an incremental round also books IncrementalScanned and defers
// its gate-skipped pages to the next round: the revisit a linear pass gets
// for free.
func (k *KSM) processBatch(cands []candidate) {
	pm := k.host.Phys()
	for i := range cands {
		c := &cands[i]
		k.classify(c, pm)
		if c.verdict == vPending {
			k.decide(c, pm)
		}
		k.apply(c, pm)
	}
	k.stats.PagesScanned += uint64(len(cands))
	if k.incRound {
		k.stats.IncrementalScanned += uint64(len(cands))
		for i := range cands {
			if c := &cands[i]; c.verdict == vGateSkip {
				k.deferVolatile(pageKey{vm: c.vm, vpn: c.vpn})
			}
		}
	}
}

// classify is step 1 for one candidate.
func (k *KSM) classify(c *candidate, pm *mem.PhysMem) {
	pte, ok := c.vm.ResidentPTE(c.vpn)
	if !ok {
		c.verdict = vNotResident
		return
	}
	c.frame = pte.Frame
	if pm.IsKSM(c.frame) {
		c.verdict = vAlreadyShared
		return
	}
	if pte.Huge {
		if k.cfg.HugeSplit == SplitNone {
			c.verdict = vHugeSkip // THP hides the page from merging
			return
		}
		// Same gate and lookups as a base page: splitting a huge page for a
		// still-changing subpage would only trade TLB reach for a merge that
		// breaks right back.
		c.huge = true
	}
	c.sum = pm.Checksum(c.frame)
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

// decide is step 2 for one candidate through the gate. It claims the
// checksum's slot once; the stable walk, the unstable walk, promotion and
// record all go through that index. A claimed slot with nothing in it ends in
// a record, so the claim never leaves an empty slot behind.
func (k *KSM) decide(c *candidate, pm *mem.PhysMem) {
	t := &k.index
	i := t.claim(c.sum)

	// Stable chain first.
	if stableFrame, hit := t.lookupStable(pm, i, c.frame); hit {
		if c.huge && !k.splitHugeFor(c.vm, c.vpn) {
			c.verdict = vHugeSkip
			return
		}
		c.verdict, c.target = vStableMerge, stableFrame
		return
	}

	// Unstable chain.
	key := pageKey{vm: c.vm, vpn: c.vpn}
	selfSeen := false
	prev := nilNode
	for n := t.unstableHead(i); n != nilNode; prev, n = n, t.node(n).next {
		ent := t.node(n).key
		if ent == key {
			// The retained index of incremental mode can already hold this
			// page from an earlier round (a linear pass drops the index
			// before a page is ever revisited, so this never fires there).
			selfSeen = true
			continue
		}
		otherPTE, ok := ent.vm.ResidentPTE(ent.vpn)
		if !ok {
			continue
		}
		other, otherHuge := otherPTE.Frame, otherPTE.Huge
		if pm.IsKSM(other) || pm.Checksum(other) != c.sum {
			// Stale: the page went away, was merged via another path — a
			// partner already promoted to the stable index still
			// checksum-matches through its old entry, and that index is the
			// only authority on stable content — or was rewritten since it
			// was recorded.
			continue
		}
		if !pm.Equal(c.frame, other) {
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
			otherPTE, _ := ent.vm.ResidentPTE(ent.vpn)
			otherHuge = otherPTE.Huge
		}
		if otherHuge && !k.splitHugeFor(ent.vm, ent.vpn) {
			c.hugeSkips++
			continue
		}
		// Promote the partner to a stable page and merge the candidate
		// into it.
		t.insertStable(pm, i, other)
		t.unlinkUnstable(i, prev, n)
		c.verdict, c.partner, c.target = vUnstableMerge, ent, other
		return
	}
	if !selfSeen {
		// A huge-mapped page is recorded like any other: duplicates that are
		// huge-mapped in every VM could never find each other otherwise.
		t.record(i, key)
	}
	c.verdict = vRecorded
}

// apply is step 3: one candidate's verdict carried out on the pool, the page
// tables, the gate and the statistics.
func (k *KSM) apply(c *candidate, pm *mem.PhysMem) {
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

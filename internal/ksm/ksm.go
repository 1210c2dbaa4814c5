// Package ksm implements the Kernel Samepage Merging scanner (Arcangeli,
// Eidus, Wright — Linux Symposium 2009), the Transparent Page Sharing
// mechanism KVM uses and the paper tunes in §2.C.
//
// The scanner walks the mergeable regions that VM processes register
// (all guest RAM, as QEMU madvises), pages_to_scan pages per wake-up with a
// sleep interval in between. For each resident candidate page it:
//
//  1. applies the volatility gate: a page whose checksum changed since the
//     last visit is skipped (it would only be merged to be COW-broken again);
//  2. searches the stable index of already-shared pages for byte-identical
//     content and, on a hit, remaps the candidate to the stable frame
//     copy-on-write;
//  3. otherwise searches the unstable index of candidate pages seen earlier
//     in this pass; a byte-identical partner promotes the pair to a new
//     stable page;
//  4. otherwise records the page in the unstable index.
//
// The pages come off one scan queue of page ranges, filled a round at a
// time. A linear round is a full pass: one range per registered region, in
// region order. Its end is the pass boundary, where the unstable index is
// cleared, as in Linux.
//
// Incremental mode (Config.IncrementalScan, requiring the host's dirty-page
// log): once two consecutive full passes complete — so every long-lived page
// has had the two same-checksum sightings the volatility gate demands — the
// scanner stops queueing full passes. Each round is built instead from the
// VMs' PML-style dirty rings, drained once per round, so only pages whose
// content may have changed are revisited. The unstable index is retained
// across rounds as the partner directory (a newly-dirtied page must still be
// able to find the clean page it now duplicates); gate-skipped pages are
// queued for the next round so a page that settles down still merges. An
// overflowed ring forces a conservative full rescan of that VM, as does
// registering a new VM mid-flight. Converged rescan cost is therefore
// proportional to churn, not to cluster size.
//
// Cost model: all content operations go through mem's content-addressed
// store, so the per-page work above is cheap in the common case —
// pm.Checksum is a cache lookup (computed once per distinct content, not
// per frame per pass), a scanned page costs one probe of the checksum table
// that holds both indexes, and pm.Equal verifies bytes only when two distinct
// descriptors' checksums agree.
//
// Deviation from Linux noted in DESIGN.md: Linux keeps stable and unstable
// pages in two red-black trees ordered by memcmp (the unstable one tolerated
// to be inconsistent and rebuilt each pass), having no page hash it trusts;
// we keep both in one checksum-keyed table with memcmp verification of every
// hit, which has the same merge outcomes.
package ksm

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

// Config holds the scanner's tuning parameters, mirroring
// /sys/kernel/mm/ksm/pages_to_scan.
type Config struct {
	// PagesToScan is the number of pages examined per wake-up.
	// The paper uses 10 000 during warm-up and 1 000 in steady state.
	PagesToScan int
	// ChecksumGate enables the volatility filter (Linux behaviour). Only
	// tests turn it off.
	ChecksumGate bool
	// HugeSplit selects what the scanner does with a transparent huge
	// mapping that hides a verified duplicate subpage.
	HugeSplit HugeSplit
	// IncrementalScan switches the scanner to dirty-ring driven rescans
	// after two consecutive completed full passes (see the package comment).
	// It requires the host to be configured with hypervisor.Config.DirtyLog;
	// without the rings the scanner stays linear forever. Off (the default),
	// behaviour is byte-identical to the linear scanner.
	IncrementalScan bool
}

// HugeSplit is the scanner's policy for duplicates hidden in huge mappings.
type HugeSplit int

const (
	// SplitNone skips huge-mapped pages entirely: the default Linux
	// behaviour, where THP hides duplicates from KSM.
	SplitNone HugeSplit = iota
	// SplitWhole splits the huge mapping back into base pages when a
	// subpage duplicates known content (a stable page or an unstable
	// candidate), recovering sharing at the cost of TLB reach.
	SplitWhole
	// SplitSubpage is the FHPM refinement of SplitWhole: the scanner carves
	// out only the duplicate-bearing subpage
	// (hypervisor.VMProcess.SplitHugeSubpages) and leaves the remainder
	// huge, the same sharing recovered at a fraction of the TLB-reach cost.
	// The head subpage (offset 0) anchors the huge entry and cannot be
	// carved; its duplicates are skipped.
	SplitSubpage
)

const (
	// sleepMillis is the sleep between wake-ups (sleep_millisecs; paper:
	// 100 ms).
	sleepMillis = 100
	// scanCostNanos is the CPU cost charged per scanned page, used only for
	// the duty-cycle estimate. 2 500 ns reproduces the paper's ≈25 % CPU at
	// 10 000 pages/100 ms and ≈2 % at 1 000 pages/100 ms.
	scanCostNanos = 2500
)

// fullPassesBeforeIncremental is how many consecutive completed full passes
// an IncrementalScan scanner needs before switching to dirty-ring rescans:
// two, so every stable-content page has had the two same-checksum sightings
// the volatility gate requires and sits either merged or in the retained
// unstable index. Registering a new VM resets the streak.
const fullPassesBeforeIncremental = 2

// DefaultConfig matches the paper's steady-state setting.
func DefaultConfig() Config {
	return Config{
		PagesToScan:  1000,
		ChecksumGate: true,
	}
}

// Stats aggregates scanner counters. PagesShared/PagesSharing/SavedBytes
// follow the sysfs names: shared counts stable frames, sharing counts
// mappings of stable frames, and saved is the difference in bytes.
type Stats struct {
	PagesShared  int
	PagesSharing int
	SavedBytes   int64

	FullScans      uint64
	PagesScanned   uint64
	StableMerges   uint64
	UnstableMerges uint64
	ChecksumSkips  uint64
	AlreadyShared  uint64
	NotResident    uint64
	COWBreaks      uint64
	StalePruned    uint64
	Stalls         uint64 // injected daemon stalls (fault injection)
	HashRejects    uint64 // hash matched but bytes differed (verification)
	HugeSkips      uint64 // candidates skipped because a huge mapping covers them
	HugeSplits     uint64 // huge mappings split whole by KSM to recover sharing
	// HugePartialSplits counts subpages carved out of huge mappings under
	// SplitSubpage (each event is one subpage, not one block).
	HugePartialSplits uint64

	IncrementalRounds  uint64 // dirty-ring drain rounds that produced rescan work
	IncrementalScanned uint64 // pages scanned in incremental rounds
	DirtyDrained       uint64 // pages drained from the per-VM dirty rings
	RingOverflows      uint64 // drain cycles that hit the ring capacity (forced full rescans)

	CPUBusy simclock.Time
	// CPUWall is wall time since Start minus elapsed injected-stall time:
	// a stalled daemon is descheduled, so stalls must not dilute the duty
	// cycle it reports for the time it actually had the CPU.
	CPUWall simclock.Time
	// StalledTime is the elapsed portion of injected Stall windows.
	StalledTime simclock.Time
}

// CPUPercent reports the scanner's duty cycle since Start.
func (s Stats) CPUPercent() float64 {
	if s.CPUWall == 0 {
		return 0
	}
	return 100 * float64(s.CPUBusy) / float64(s.CPUWall)
}

type pageKey struct {
	vm  *hypervisor.VMProcess
	vpn mem.VPN
}

// scanRange is one scan-queue work item: scan pages [start, end) of one VM,
// all inside one registered region. A linear round queues whole regions; an
// incremental round queues dirtied pages, adjacent ones coalesced.
type scanRange struct {
	vm         *hypervisor.VMProcess
	start, end mem.VPN
}

// KSM is the scanner instance for one host.
type KSM struct {
	host *hypervisor.Host
	cfg  Config

	regions []hypervisor.MergeableRegion
	// regSet mirrors regions for O(1) duplicate detection in Register
	// (regions itself stays a slice: scan order is part of determinism).
	regSet map[hypervisor.MergeableRegion]struct{}
	// registeredPages is the page total across regions; the retained
	// unstable index of incremental mode is compacted when it outgrows it.
	registeredPages int

	// incremental is true once the scanner has switched to dirty-ring
	// rescans; fullStreak counts consecutive completed full passes toward
	// the switch.
	incremental bool
	fullStreak  int
	// queue is the current round's work, in region order with ascending
	// ranges per VM. In linear mode a pass is always in flight: the next one
	// is queued as the last page of the previous one is popped, and Register
	// appends to it. incRound is set while the queue holds an incremental
	// round; it trails incremental by the last page of the pass that
	// switched modes, which is scanned as linear. passBuf backs the linear
	// rounds, reused from pass to pass.
	queue    []scanRange
	incRound bool
	passBuf  []scanRange
	// incPending holds gate-skipped (volatile at last sight) pages for the
	// next round: a page dirtied once must be revisited to earn its second
	// sighting even though nothing dirties it again. incPendingSet dedups.
	incPending    []pageKey
	incPendingSet map[pageKey]struct{}
	// needFull marks VMs registered while incremental whose rings cannot
	// vouch for history: their whole region is rescanned next round.
	needFull map[*hypervisor.VMProcess]bool
	// stableDirty is set when a stable page may have lost its last mapper
	// (COW break on a KSM frame, unregister); incremental rounds run the
	// stale-stable prune only then, keeping idle rounds O(churn).
	stableDirty bool
	// ringVM is the VM whose dirty ring a linear round reset most recently;
	// nil between passes so every pass resets each ring once.
	ringVM *hypervisor.VMProcess

	// index holds the KSM stable frames and the candidate pages recorded
	// this pass, both keyed by checksum; see index.go and pipeline.go.
	index sumTable
	// gates holds the volatility gate, one dense table per registered
	// region; see gate.go.
	gates    []*regionGate
	gateMemo *regionGate

	// vms lists the VMs with at least one registered region, in first-
	// registration order; vmRegs counts each VM's registered regions. The
	// dirty-ring-depth gauge walks vms directly instead of allocating a
	// per-sample dedup map over regions.
	vms    []*hypervisor.VMProcess
	vmRegs map[*hypervisor.VMProcess]int

	// candBuf is reusable scratch for the batch pipeline (pipeline.go); each
	// batch is fully consumed before the next collection reuses it.
	candBuf []candidate

	running bool
	started simclock.Time
	// everStarted distinguishes "started at clock epoch" from "never
	// started": Stats must not report wall time for a scanner that never ran.
	everStarted bool
	// stalledUntil makes wake-ups no-ops until the given time (fault
	// injection: ksmd descheduled by a hostile co-runner). stallSched
	// accumulates the scheduled stall windows (overlaps extend, never
	// double-count) so Stats can subtract elapsed stall time from CPUWall.
	stalledUntil simclock.Time
	stallSched   simclock.Time
	stats        Stats
	// passStart snapshots the counters at the start of the current pass, so
	// telemetry can expose per-pass activity alongside the cumulative run.
	passStart Stats
}

// New creates a scanner for the host and registers the COW-break hook so
// sharing statistics stay exact. Call Register for each VM (or RegisterAll),
// then Start.
func New(host *hypervisor.Host, cfg Config) *KSM {
	if cfg.PagesToScan <= 0 {
		panic(fmt.Sprintf("ksm: PagesToScan = %d", cfg.PagesToScan))
	}
	k := &KSM{
		host:     host,
		cfg:      cfg,
		regSet:   make(map[hypervisor.MergeableRegion]struct{}),
		index:    makeSumTable(minSlots),
		needFull: make(map[*hypervisor.VMProcess]bool),
		vmRegs:   make(map[*hypervisor.VMProcess]int),
	}
	host.OnCOWBreak = k.onCOWBreak
	return k
}

// SetPagesToScan retunes the scan rate at runtime (the paper switches from
// 10 000 to 1 000 after warm-up).
func (k *KSM) SetPagesToScan(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("ksm: SetPagesToScan(%d)", n))
	}
	k.cfg.PagesToScan = n
}

// Register adds a VM's mergeable regions to the scan list. Regions that are
// already registered are skipped, so Register followed by RegisterAll cannot
// double-scan a VM. In linear mode the new regions join the pass in flight
// and the full-pass streak restarts (that pass no longer covers everything
// twice); a scanner already in incremental mode instead schedules a
// conservative full rescan of the VM, since its ring cannot vouch for writes
// that predate it.
func (k *KSM) Register(vm *hypervisor.VMProcess) {
	added := false
	for _, reg := range vm.MergeableRegions() {
		if _, dup := k.regSet[reg]; dup {
			continue
		}
		k.regSet[reg] = struct{}{}
		k.regions = append(k.regions, reg)
		k.gates = append(k.gates, newRegionGate(reg))
		k.registeredPages += int(reg.End - reg.Start)
		if k.vmRegs[reg.VM]++; k.vmRegs[reg.VM] == 1 {
			k.vms = append(k.vms, reg.VM)
		}
		if !k.incremental && reg.Start < reg.End {
			k.queue = append(k.queue, scanRange{vm: reg.VM, start: reg.Start, end: reg.End})
		}
		added = true
	}
	if !added {
		return
	}
	k.index.reserve(k.registeredPages)
	if k.incremental {
		k.needFull[vm] = true
	} else {
		k.fullStreak = 0
	}
}

// Unregister drops a VM's regions from the scan list — what Linux does when
// a process with madvised VMAs exits — and purges the VM's volatility-gate,
// unstable-index and scan-queue entries so no stale pointers to the dead
// process survive. If that empties the linear pass in flight, every
// surviving region has been scanned, so the pass ends here with endPass's
// usual side effects (unstable-index drop, stale-stable prune, gate sweep,
// FullScans accounting) — when the last VM goes too. Stable pages the VM
// mapped are left to refcounting: KillVM drops the mappings and the
// stale-stable prune collects nodes nobody maps anymore.
func (k *KSM) Unregister(vm *hypervisor.VMProcess) {
	if _, ok := k.vmRegs[vm]; !ok {
		return
	}
	k.regions = slices.DeleteFunc(k.regions, func(reg hypervisor.MergeableRegion) bool {
		if reg.VM != vm {
			return false
		}
		delete(k.regSet, reg)
		k.registeredPages -= int(reg.End - reg.Start)
		return true
	})
	delete(k.vmRegs, vm)
	k.vms = slices.DeleteFunc(k.vms, func(v *hypervisor.VMProcess) bool { return v == vm })
	k.gates = slices.DeleteFunc(k.gates, func(g *regionGate) bool { return g.vm == vm })
	k.gateMemo = nil
	k.index.filterUnstable(func(key pageKey, _ uint64) bool { return key.vm == vm })
	delete(k.needFull, vm)
	if k.ringVM == vm {
		k.ringVM = nil
	}
	inFlight := len(k.queue) > 0
	k.queue = slices.DeleteFunc(k.queue, func(r scanRange) bool { return r.vm == vm })
	k.incPending = slices.DeleteFunc(k.incPending, func(key pageKey) bool {
		if key.vm != vm {
			return false
		}
		delete(k.incPendingSet, key)
		return true
	})
	// The VM's stable pages lose their mappers when KillVM runs; let the
	// next incremental round prune the index (full passes always do).
	k.stableDirty = true
	if inFlight && len(k.queue) == 0 && !k.incremental {
		k.endPass()
	}
}

// RegisterAll registers every VM currently on the host.
func (k *KSM) RegisterAll() {
	for _, vm := range k.host.VMs() {
		k.Register(vm)
	}
}

// Start schedules the scan loop on the host clock. The scanner keeps
// rescheduling itself until Stop is called.
func (k *KSM) Start() {
	if k.running {
		return
	}
	k.running = true
	k.started = k.host.Clock().Now()
	k.everStarted = true
	k.host.Clock().Every(sleepMillis*simclock.Millisecond, func(now simclock.Time) bool {
		if !k.running {
			return false
		}
		if now < k.stalledUntil {
			return true
		}
		k.ScanChunk(k.cfg.PagesToScan)
		return true
	})
}

// Stall suspends scanning for d of virtual time: wake-ups fire but do no
// work until the deadline passes. Overlapping stalls extend, not stack, and
// stallSched books only the extension so the scheduled stall time is never
// double-counted.
func (k *KSM) Stall(d simclock.Time) {
	now := k.host.Clock().Now()
	if until := now + d; until > k.stalledUntil {
		start := now
		if k.stalledUntil > start {
			start = k.stalledUntil
		}
		k.stallSched += until - start
		k.stalledUntil = until
	}
	k.stats.Stalls++
}

// Stop halts the scan loop after the current wake-up.
func (k *KSM) Stop() { k.running = false }

// Stats returns a snapshot of counters with the sharing totals recomputed
// from the stable index.
func (k *KSM) Stats() Stats {
	s := k.stats
	s.PagesShared = 0
	s.PagesSharing = 0
	pm := k.host.Phys()
	k.index.walkStable(func(f mem.FrameID) {
		mappers := pm.RefCount(f) - 1 // one reference belongs to the index
		if mappers <= 0 {
			return
		}
		s.PagesShared++
		s.PagesSharing += mappers
	})
	s.SavedBytes = int64(s.PagesSharing-s.PagesShared) * int64(k.host.PageSize())
	// Elapsed stall time is the scheduled total minus whatever part of the
	// current window is still in the future.
	now := k.host.Clock().Now()
	stalled := k.stallSched
	if pending := k.stalledUntil - now; pending > 0 {
		stalled -= pending
	}
	s.StalledTime = stalled
	// A scanner that never started has no wall time; without this guard
	// CPUPercent would report a bogus duty cycle measured from clock epoch.
	if k.everStarted {
		s.CPUWall = now - k.started - stalled
		if s.CPUWall < 0 {
			s.CPUWall = 0
		}
	}
	return s
}

// ScanChunk examines up to n pages off the scan queue, a collected batch at
// a time. An empty queue first gets the next round of the current mode. When
// a linear round runs out, endPass runs before its last page is scanned and
// queues the next pass, which the rest of the budget continues into. That
// last page is scanned as linear even when endPass has just switched the
// scanner to incremental mode, and the rest of the budget is then forfeited.
// An incremental round is built at most once per wake-up, so a page the gate
// deferred is never revisited within the same wake-up (its two sightings
// stay a sleep interval apart, as in a linear pass). CPU is charged for
// pages actually scanned: a converged cluster with empty rings costs nothing.
// The retained index of incremental mode is repacked once its node store
// holds more than twice its entries and a chunk.
func (k *KSM) ScanChunk(n int) {
	if len(k.queue) == 0 {
		k.nextRound()
	}
	scanned := 0
	for scanned < n && len(k.queue) > 0 {
		cands := k.collect(n - scanned)
		scanned += len(cands)
		if k.incRound || len(k.queue) > 0 {
			k.processBatch(cands)
			continue
		}
		last := len(cands) - 1
		k.processBatch(cands[:last])
		k.endPass()
		k.processBatch(cands[last:])
	}
	k.stats.CPUBusy += simclock.Time(int64(scanned) * scanCostNanos / 1000)
	if t := &k.index; k.incremental && t.unstableStorage() > 2*t.unstableN+unstableChunk {
		t.repackUnstable()
	}
}

// nextRound queues the next round of the current mode: in incremental mode
// the dirty-ring round of buildRound, in linear mode a full pass — one range
// per registered non-empty region, in region order — built into the previous
// pass's backing, so a pass allocates nothing.
func (k *KSM) nextRound() {
	if k.incremental {
		k.buildRound()
		return
	}
	k.passBuf = k.passBuf[:0]
	for _, reg := range k.regions {
		if reg.Start < reg.End {
			k.passBuf = append(k.passBuf, scanRange{vm: reg.VM, start: reg.Start, end: reg.End})
		}
	}
	k.queue, k.incRound = k.passBuf, false
}

// buildRound assembles the next incremental work queue: each VM's dirty ring
// is drained once (an overflowed or unvouched-for ring conservatively queues
// the VM's whole region), merged with the pages the volatility gate deferred
// last round. Housekeeping that a full pass used to do is event-gated here —
// the stale-stable prune runs only when sharing may have been lost, and the
// retained unstable index is compacted only when it outgrows the registered
// page count — so an idle round's cost is proportional to churn.
func (k *KSM) buildRound() {
	// Re-snapshot the per-pass baseline each round. endPass never runs again
	// once the scanner goes incremental, so without this the ksm.pass.*
	// gauges silently became cumulative-since-switch; a round is the
	// incremental analogue of a pass.
	k.passStart = k.stats
	if k.stableDirty {
		k.pruneStaleStable()
		k.stableDirty = false
	}
	if k.index.unstableN > k.registeredPages {
		k.compactUnstable()
	}
	pending := k.incPending
	k.incPending = nil
	k.incPendingSet = nil
	pendByVM := make(map[*hypervisor.VMProcess][]mem.VPN, len(pending))
	for _, key := range pending {
		pendByVM[key.vm] = append(pendByVM[key.vm], key.vpn)
	}

	drained := make(map[*hypervisor.VMProcess][]mem.VPN, len(k.regions))
	full := make(map[*hypervisor.VMProcess]bool, len(k.regions))
	for _, reg := range k.regions {
		if _, done := full[reg.VM]; done {
			continue
		}
		pages, overflowed := reg.VM.DrainDirtyLog()
		k.observeDrain(reg.VM, len(pages), overflowed)
		if k.needFull[reg.VM] {
			overflowed = true
			delete(k.needFull, reg.VM)
		}
		drained[reg.VM] = pages
		full[reg.VM] = overflowed
	}
	k.queue, k.incRound = nil, true
	for _, reg := range k.regions {
		if full[reg.VM] {
			if reg.Start < reg.End {
				k.queue = append(k.queue, scanRange{vm: reg.VM, start: reg.Start, end: reg.End})
			}
			continue
		}
		k.queuePages(reg, drained[reg.VM], pendByVM[reg.VM])
	}
	if len(k.queue) > 0 {
		k.stats.IncrementalRounds++
	}
}

// queuePages sorts, dedups and coalesces the region's dirty plus deferred
// pages into ascending ranges on the scan queue.
func (k *KSM) queuePages(reg hypervisor.MergeableRegion, lists ...[]mem.VPN) {
	var all []mem.VPN
	for _, list := range lists {
		for _, v := range list {
			if v >= reg.Start && v < reg.End {
				all = append(all, v)
			}
		}
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	start, prev := all[0], all[0]
	for _, v := range all[1:] {
		if v == prev || v == prev+1 {
			prev = v
			continue
		}
		k.queue = append(k.queue, scanRange{vm: reg.VM, start: start, end: prev + 1})
		start, prev = v, v
	}
	k.queue = append(k.queue, scanRange{vm: reg.VM, start: start, end: prev + 1})
}

// deferVolatile queues a gate-skipped page for the next round's revisit.
func (k *KSM) deferVolatile(key pageKey) {
	if k.incPendingSet == nil {
		k.incPendingSet = make(map[pageKey]struct{})
	}
	if _, dup := k.incPendingSet[key]; dup {
		return
	}
	k.incPendingSet[key] = struct{}{}
	k.incPending = append(k.incPending, key)
}

// observeDrain books one ring drain/reset: drain statistics, the overflow
// counter, and the VM's working-set estimate (an overflowed log is
// incomplete, so the conservative signal is the VM's full registered size).
func (k *KSM) observeDrain(vm *hypervisor.VMProcess, pages int, overflowed bool) {
	if !k.host.DirtyLogEnabled() {
		return
	}
	k.stats.DirtyDrained += uint64(pages)
	if overflowed {
		k.stats.RingOverflows++
		pages = 0
		for _, reg := range k.regions {
			if reg.VM == vm {
				pages += int(reg.End - reg.Start)
			}
		}
	}
	vm.ObserveDirtyDrain(pages)
}

// endPass finishes a full scan of all regions: stable nodes whose last
// mapper went away are pruned, and so are volatility-gate entries for pages
// that are no longer scan candidates — swapped out, unmapped, or merged into
// a stable page: such a page's next visit is a first sighting again. The
// unstable index is dropped (as in Linux) and the next pass queued — except
// when this pass completes the streak that switches the scanner to
// incremental mode, where the index survives as the partner directory for
// dirtied pages.
func (k *KSM) endPass() {
	k.stats.FullScans++
	k.fullStreak++
	k.ringVM = nil
	if k.cfg.IncrementalScan && k.host.DirtyLogEnabled() && k.fullStreak >= fullPassesBeforeIncremental {
		k.incremental = true
	} else {
		k.index.dropUnstable()
	}
	k.pruneStaleStable()
	for _, g := range k.gates {
		g.sweep(k.host.Phys())
	}
	k.stableDirty = false
	k.passStart = k.stats
	if !k.incremental {
		k.nextRound()
	}
}

// pruneStaleStable drops stable frames nobody maps anymore (only the index's
// own reference is left). Full passes run it unconditionally; incremental
// rounds only when stableDirty says sharing may have been lost. The stale
// frames are freed in ascending frame id, since the free stack's order decides
// later frame numbers and nothing may read the order of the index's walk (the
// order its node store happens to be in); only they are sorted, so a pass
// with nothing to prune costs one refcount check per stable frame and
// allocates nothing.
func (k *KSM) pruneStaleStable() {
	pm := k.host.Phys()
	var stale []mem.FrameID
	k.index.walkStable(func(f mem.FrameID) {
		if pm.RefCount(f) == 1 { // only the index holds it
			stale = append(stale, f)
		}
	})
	slices.Sort(stale)
	k.freeStable(stale)
}

// freeStable takes frames nobody maps out of the stable index and drops the
// index's references to them. Stable content is write-protected, so a frame's
// checksum is still the one it was indexed under.
func (k *KSM) freeStable(frames []mem.FrameID) {
	pm := k.host.Phys()
	for _, f := range frames {
		if !k.index.removeStable(f, pm.Checksum(f)) {
			// Un-flagging and releasing it would leave the index naming a
			// frame the allocator hands out again.
			panic(fmt.Sprintf("ksm: stable frame %d not in the stable index", f))
		}
		pm.SetKSM(f, false)
		pm.DecRef(f)
		k.stats.StalePruned++
	}
}

// compactUnstable drops unstable entries that can no longer merge — the page
// went away, was merged elsewhere, or was rewritten since it was recorded.
// The retained index of incremental mode has no end-of-pass drop, so this
// bounds it by the registered page count instead.
func (k *KSM) compactUnstable() {
	pm := k.host.Phys()
	k.index.filterUnstable(func(key pageKey, sum uint64) bool {
		pte, ok := key.vm.ResidentPTE(key.vpn)
		return !ok || pm.IsKSM(pte.Frame) || pm.Checksum(pte.Frame) != sum
	})
}

// splitHugeFor recovers the verified-duplicate subpage at vpn from the huge
// mapping covering it, honoring the configured split policy: carving just
// that subpage out (SplitSubpage) or dissolving the whole huge page
// (SplitWhole). Reports false, having touched nothing, when the policy
// leaves the mapping intact — splitting off, or a partial split aimed at the
// uncarvable head subpage — and the caller forgoes the merge.
func (k *KSM) splitHugeFor(vm *hypervisor.VMProcess, vpn mem.VPN) bool {
	head := mem.HugeAlign(vpn)
	switch k.cfg.HugeSplit {
	case SplitSubpage:
		if vpn == head {
			return false
		}
		vm.SplitHugeSubpages(head, []mem.VPN{vpn})
		k.stats.HugePartialSplits++
	case SplitWhole:
		vm.SplitHuge(head)
		k.stats.HugeSplits++
	default:
		return false
	}
	return true
}

// Instrument registers the scanner's telemetry gauges through gauge, which
// reads each read-only probe at every sample tick. Cumulative counters come
// straight from the stats block; "ksm.pass.*" gauges report activity within
// the current pass (counter minus the end-of-last-pass snapshot), so a
// timeline shows per-pass effort even after the cumulative totals dwarf it.
// The sharing totals need a stable index walk, so they share one Stats
// snapshot per sample timestamp.
func (k *KSM) Instrument(gauge func(name string, fn func() float64)) {
	var (
		snapAt    simclock.Time = -1
		snapStats Stats
	)
	snapshot := func() Stats {
		if now := k.host.Clock().Now(); now != snapAt {
			snapAt = now
			snapStats = k.Stats()
		}
		return snapStats
	}
	gauge("ksm.pages_scanned", func() float64 { return float64(k.stats.PagesScanned) })
	gauge("ksm.pages_merged", func() float64 {
		return float64(k.stats.StableMerges + k.stats.UnstableMerges)
	})
	gauge("ksm.pages_unmerged", func() float64 { return float64(k.stats.COWBreaks) })
	gauge("ksm.pages_volatile", func() float64 { return float64(k.stats.ChecksumSkips) })
	gauge("ksm.full_scans", func() float64 { return float64(k.stats.FullScans) })
	gauge("ksm.stable_tree_size", func() float64 { return float64(k.index.stableN) })
	gauge("ksm.unstable_entries", func() float64 { return float64(k.index.unstableN) })
	gauge("ksm.pages_shared", func() float64 { return float64(snapshot().PagesShared) })
	gauge("ksm.pages_sharing", func() float64 { return float64(snapshot().PagesSharing) })
	gauge("ksm.saved_bytes", func() float64 { return float64(snapshot().SavedBytes) })
	gauge("ksm.pass.pages_scanned", func() float64 {
		return float64(k.stats.PagesScanned - k.passStart.PagesScanned)
	})
	gauge("ksm.pass.pages_merged", func() float64 {
		return float64(k.stats.StableMerges + k.stats.UnstableMerges -
			k.passStart.StableMerges - k.passStart.UnstableMerges)
	})
	gauge("ksm.pass.pages_volatile", func() float64 {
		return float64(k.stats.ChecksumSkips - k.passStart.ChecksumSkips)
	})
	gauge("ksm.huge_skips", func() float64 { return float64(k.stats.HugeSkips) })
	gauge("ksm.huge_splits", func() float64 { return float64(k.stats.HugeSplits) })
	gauge("ksm.huge_partial_splits", func() float64 { return float64(k.stats.HugePartialSplits) })
	gauge("ksm.pass.sharing_lost_pages", func() float64 {
		return float64(k.stats.HugeSkips - k.passStart.HugeSkips)
	})
	gauge("ksm.dirty_ring_depth", func() float64 { return float64(k.DirtyRingDepth()) })
	gauge("ksm.dirty_ring_overflows", func() float64 { return float64(k.stats.RingOverflows) })
	gauge("ksm.dirty_drained", func() float64 { return float64(k.stats.DirtyDrained) })
	gauge("ksm.pages_scanned_incremental", func() float64 {
		return float64(k.stats.IncrementalScanned)
	})
	gauge("ksm.pages_scanned_full", func() float64 {
		return float64(k.stats.PagesScanned - k.stats.IncrementalScanned)
	})
	gauge("ksm.incremental_rounds", func() float64 { return float64(k.stats.IncrementalRounds) })
}

// onCOWBreak keeps break statistics; frame lifecycle is handled by refcounts
// and the stale-stable prune (end of pass, or the next incremental round —
// a break on a KSM frame may have orphaned it, so the round must look).
func (k *KSM) onCOWBreak(_ *hypervisor.VMProcess, _ mem.VPN, old mem.FrameID) {
	if k.host.Phys().IsKSM(old) {
		k.stats.COWBreaks++
		k.stableDirty = true
	}
}

// DirtyRingDepth sums the registered VMs' dirty-ring depths. It walks the
// maintained unique-VM list, so a metrics sample allocates nothing (an
// earlier version rebuilt a per-VM dedup map over the region list on every
// sample).
func (k *KSM) DirtyRingDepth() int {
	depth := 0
	for _, vm := range k.vms {
		depth += vm.DirtyLogDepth()
	}
	return depth
}

// StableFrames exposes the stable index contents in ascending frame id (for
// the analyzer and tests).
func (k *KSM) StableFrames() []mem.FrameID {
	out := make([]mem.FrameID, 0, k.index.stableN)
	k.index.walkStable(func(f mem.FrameID) { out = append(out, f) })
	slices.Sort(out)
	return out
}

// Unmerge undoes all sharing, like writing 2 to /sys/kernel/mm/ksm/run:
// every mapping of a stable page gets its own private copy again, and the
// stable index is emptied. Memory usage jumps back to the unshared level.
func (k *KSM) Unmerge() {
	pm := k.host.Phys()
	for _, reg := range k.regions {
		for vpn := reg.Start; vpn < reg.End; vpn++ {
			f, ok := reg.VM.ResolveResident(vpn)
			if !ok || !pm.IsKSM(f) {
				continue
			}
			// A write access breaks the COW sharing; the touch path copies
			// the stable content into a private frame.
			reg.VM.TouchGuestPage(uint64(vpn-reg.Start), true)
		}
	}
	// All stable frames are now referenced only by the index.
	k.freeStable(k.StableFrames())
	k.index.dropUnstable()
	for _, g := range k.gates {
		clear(g.seen)
	}
	// Unmerging invalidates everything incremental mode assumed converged:
	// its round gives way to a fresh full pass and the switch must be earned
	// again. A linear pass in flight carries on.
	if k.incremental {
		k.incremental = false
		k.nextRound()
	}
	k.fullStreak = 0
	k.incPending = nil
	k.incPendingSet = nil
	k.needFull = make(map[*hypervisor.VMProcess]bool)
	k.ringVM = nil
	k.stableDirty = false
}

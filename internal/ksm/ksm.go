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
// The unstable index is cleared at the end of every full pass, as in Linux.
//
// Incremental mode (Config.IncrementalScan, requiring the host's dirty-page
// log): once two consecutive full passes complete — so every long-lived page
// has had the two same-checksum sightings the volatility gate demands — the
// scanner stops cycling over all registered pages and instead drains each
// VM's PML-style dirty ring once per wake-up, revisiting only pages whose
// content may have changed. The unstable index is retained across rounds as
// the partner directory (a newly-dirtied page must still be able to find the
// clean page it now duplicates); gate-skipped pages are queued for the next
// round so a page that settles down still merges. An overflowed ring forces
// a conservative full rescan of that VM, as does registering a new VM
// mid-flight. Converged rescan cost is therefore proportional to churn, not
// to cluster size.
//
// Cost model: all content operations go through mem's content-addressed
// store, so the per-page work above is cheap in the common case —
// pm.Checksum is a cache lookup (computed once per distinct content, not
// per frame per pass), a page whose checksum no indexed page shares costs one
// map probe per index, and pm.Equal verifies bytes only when two distinct
// descriptors' checksums agree.
//
// Deviation from Linux noted in DESIGN.md: Linux keeps stable and unstable
// pages in two red-black trees ordered by memcmp (the unstable one tolerated
// to be inconsistent and rebuilt each pass), having no page hash it trusts;
// we keep both in checksum-indexed tables with memcmp verification of every
// hit, which has the same merge outcomes.
package ksm

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Config holds the scanner's tuning parameters, mirroring
// /sys/kernel/mm/ksm/{pages_to_scan,sleep_millisecs}.
type Config struct {
	// PagesToScan is the number of pages examined per wake-up.
	// The paper uses 10 000 during warm-up and 1 000 in steady state.
	PagesToScan int
	// SleepMillis is the sleep between wake-ups (paper: 100 ms).
	SleepMillis int
	// ChecksumGate enables the volatility filter (Linux behaviour). The
	// ablation benchmarks turn it off to show wasted merges on volatile
	// pages.
	ChecksumGate bool
	// ScanCostNanos is the CPU cost charged per scanned page, used only for
	// the duty-cycle estimate. 2 500 ns reproduces the paper's ≈25 % CPU at
	// 10 000 pages/100 ms and ≈2 % at 1 000 pages/100 ms.
	ScanCostNanos int
	// SplitHugePages lets the scanner split a transparent huge mapping back
	// into base pages when it sees that a subpage duplicates known content
	// (a stable page or an unstable candidate), recovering sharing at the
	// cost of TLB reach. Off, huge-mapped pages are skipped entirely — the
	// default Linux behaviour, where THP hides duplicates from KSM.
	SplitHugePages bool
	// PartialSplitHuge is the FHPM refinement of SplitHugePages: instead of
	// dissolving the whole huge mapping, the scanner carves out only the
	// duplicate-bearing subpage (hypervisor.VMProcess.SplitHugeSubpages)
	// and leaves the remainder huge — the same sharing recovered at a
	// fraction of the TLB-reach cost. Takes precedence over SplitHugePages
	// when both are set. The head subpage (offset 0) anchors the huge entry
	// and cannot be carved; its duplicates are skipped.
	PartialSplitHuge bool
	// IncrementalScan switches the scanner to dirty-ring driven rescans
	// after two consecutive completed full passes (see the package comment).
	// It requires the host to be configured with hypervisor.Config.DirtyLog;
	// without the rings the scanner stays linear forever. Off (the default),
	// behaviour is byte-identical to the linear scanner.
	IncrementalScan bool
	// Shards splits the merge state — the stable and the unstable index
	// — into this many partitions routed by checksum % Shards, scanned by a
	// bounded worker pool (one worker per shard with work; see shard.go).
	// 0 or 1 keeps the single-threaded scanner. Merge outcomes, statistics
	// and frame allocation order are byte-identical at every shard count;
	// only wall-clock scan time changes. DESIGN.md §5f has the invariants.
	Shards int
}

// fullPassesBeforeIncremental is how many consecutive completed full passes
// an IncrementalScan scanner needs before switching to dirty-ring rescans:
// two, so every stable-content page has had the two same-checksum sightings
// the volatility gate requires and sits either merged or in the retained
// unstable index. Registering a new VM resets the streak.
const fullPassesBeforeIncremental = 2

// DefaultConfig matches the paper's steady-state setting.
func DefaultConfig() Config {
	return Config{
		PagesToScan:   1000,
		SleepMillis:   100,
		ChecksumGate:  true,
		ScanCostNanos: 2500,
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
	// PartialSplitHuge (each event is one subpage, not one block).
	HugePartialSplits uint64

	IncrementalRounds  uint64 // dirty-ring drain rounds that produced rescan work
	IncrementalScanned uint64 // pages scanned from the incremental queue
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

type unstableEntry struct {
	key      pageKey
	checksum uint64
}

// incRange is one incremental-round work item: rescan pages [start, end) of
// one VM. Single dirtied pages are one-page ranges; adjacent pages coalesce.
type incRange struct {
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
	regSet    map[hypervisor.MergeableRegion]struct{}
	regionIdx int
	cursor    mem.VPN
	// scannable counts regions with Start < End, maintained on Register and
	// Unregister (regions never resize in place), so ScanChunk's can-work
	// guard is O(1) instead of an O(regions) walk per wake-up.
	scannable int
	// registeredPages is the page total across regions; the retained
	// unstable index of incremental mode is compacted when it outgrows it.
	registeredPages int

	// incremental is true once the scanner has switched to dirty-ring
	// rescans; fullStreak counts consecutive completed full passes toward
	// the switch.
	incremental bool
	fullStreak  int
	// incQueue is the current round's rescan work, in region order with
	// ascending coalesced page ranges per VM.
	incQueue []incRange
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
	// ringVM is the VM whose dirty ring the linear cursor reset most
	// recently; nil between passes so every pass resets each ring once.
	ringVM *hypervisor.VMProcess

	// shards holds the checksum-partitioned merge state (stable and
	// unstable indexes) — one entry when unsharded. See shard.go.
	shards []*scanShard
	// gates holds the volatility gate, one dense table per registered
	// region; see gate.go.
	gates    []*regionGate
	gateMemo *regionGate

	// vms lists the VMs with at least one registered region, in first-
	// registration order; vmRegs counts each VM's live regions so Unregister
	// knows when to drop one. The dirty-ring-depth gauge walks vms directly
	// instead of allocating a per-sample dedup map over regions.
	vms    []*hypervisor.VMProcess
	vmRegs map[*hypervisor.VMProcess]int

	// candBuf, wrapCand and shardIdx are reusable scratch for the batch
	// pipeline (shard.go); each batch is fully consumed before the next
	// collection reuses them.
	candBuf  []candidate
	wrapCand candidate
	shardIdx [][]int32

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
	if cfg.SleepMillis <= 0 {
		panic(fmt.Sprintf("ksm: SleepMillis = %d", cfg.SleepMillis))
	}
	shardN := cfg.Shards
	if shardN <= 0 {
		shardN = 1
	}
	k := &KSM{
		host:     host,
		cfg:      cfg,
		regSet:   make(map[hypervisor.MergeableRegion]struct{}),
		shards:   make([]*scanShard, shardN),
		needFull: make(map[*hypervisor.VMProcess]bool),
		vmRegs:   make(map[*hypervisor.VMProcess]int),
	}
	for i := range k.shards {
		k.shards[i] = newScanShard(host.Phys())
	}
	host.OnCOWBreak = k.onCOWBreak
	return k
}

// Config returns the current tuning parameters.
func (k *KSM) Config() Config { return k.cfg }

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
// double-scan a VM. Registering fresh pages resets the full-pass streak (a
// pass in flight no longer covers everything twice); a scanner already in
// incremental mode instead schedules a conservative full rescan of the VM,
// since its ring cannot vouch for writes that predate it.
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
		if reg.Start < reg.End {
			k.scannable++
		}
		if k.vmRegs[reg.VM]++; k.vmRegs[reg.VM] == 1 {
			k.vms = append(k.vms, reg.VM)
		}
		added = true
	}
	if !added {
		return
	}
	if k.incremental {
		k.needFull[vm] = true
	} else {
		k.fullStreak = 0
	}
}

// Unregister drops a VM's regions from the scan list — what Linux does when
// a process with madvised VMAs exits — and purges the VM's volatility-gate,
// unstable-index and incremental-queue entries so no stale pointers to the
// dead process survive. The pass cursor is repaired in place: removing a
// region before the current one shifts the index down, removing the current
// one restarts at the region that slides into its slot. When the repair
// wraps past the shrunken list the pass IS complete — every surviving region
// was already scanned this pass — so endPass fires with its usual
// side effects (unstable-index drop, stale-stable prune, gate sweep,
// FullScans accounting); earlier versions skipped it, silently stretching
// the pass and its generation bookkeeping across the wrap. Stable pages the
// VM mapped are left to refcounting: KillVM drops the mappings and the
// stale-stable prune collects nodes nobody maps anymore.
func (k *KSM) Unregister(vm *hypervisor.VMProcess) {
	kept := k.regions[:0]
	newIdx := k.regionIdx
	removed := false
	for i, reg := range k.regions {
		if reg.VM == vm {
			delete(k.regSet, reg)
			k.registeredPages -= int(reg.End - reg.Start)
			if reg.Start < reg.End {
				k.scannable--
			}
			if k.vmRegs[vm]--; k.vmRegs[vm] == 0 {
				delete(k.vmRegs, vm)
				for vi, v := range k.vms {
					if v == vm {
						k.vms = append(k.vms[:vi], k.vms[vi+1:]...)
						break
					}
				}
			}
			if i < k.regionIdx {
				newIdx--
			} else if i == k.regionIdx {
				k.cursor = 0
			}
			removed = true
			continue
		}
		kept = append(kept, reg)
	}
	k.regions = kept
	k.regionIdx = newIdx
	wrapped := false
	if k.regionIdx >= len(k.regions) {
		k.regionIdx = 0
		k.cursor = 0
		wrapped = true
	}
	if !removed {
		return
	}
	k.gates = slices.DeleteFunc(k.gates, func(g *regionGate) bool { return g.vm == vm })
	k.gateMemo = nil
	for _, s := range k.shards {
		for sum, bucket := range s.unstable {
			keptEnts := bucket[:0]
			for _, ent := range bucket {
				if ent.key.vm == vm {
					s.unstableN--
					continue
				}
				keptEnts = append(keptEnts, ent)
			}
			if len(keptEnts) == 0 {
				delete(s.unstable, sum)
			} else {
				s.unstable[sum] = keptEnts
			}
		}
	}
	delete(k.needFull, vm)
	if k.ringVM == vm {
		k.ringVM = nil
	}
	if len(k.incQueue) > 0 {
		keptQ := k.incQueue[:0]
		for _, r := range k.incQueue {
			if r.vm != vm {
				keptQ = append(keptQ, r)
			}
		}
		k.incQueue = keptQ
	}
	if len(k.incPending) > 0 {
		keptP := k.incPending[:0]
		for _, key := range k.incPending {
			if key.vm != vm {
				keptP = append(keptP, key)
			} else {
				delete(k.incPendingSet, key)
			}
		}
		k.incPending = keptP
	}
	// The VM's stable pages lose their mappers when KillVM runs; let the
	// next incremental round prune the index (full passes always do).
	k.stableDirty = true
	if wrapped && !k.incremental {
		// The cursor was inside (or past) the removed trailing region, so
		// every surviving region has been fully scanned this pass: the pass
		// boundary that the wrap used to swallow. That holds for an emptied
		// scan list too — vacuously, all zero survivors were scanned — and
		// skipping endPass there (as an earlier version did) lost the
		// FullScans/streak accounting and the unstable-index drop exactly
		// when the last VM went away.
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
	k.host.Clock().Every(simclock.Time(k.cfg.SleepMillis)*simclock.Millisecond, func(now simclock.Time) bool {
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
	for _, sh := range k.shards {
		sh.stable.walk(func(f mem.FrameID) {
			mappers := pm.RefCount(f) - 1 // one reference belongs to the index
			if mappers <= 0 {
				return
			}
			s.PagesShared++
			s.PagesSharing += mappers
		})
	}
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

// ScanChunk examines up to n pages. In linear mode it advances the circular
// cursor over all registered regions; a full pass over every region ends the
// current unstable generation and prunes dead stable nodes. Empty regions
// (Start == End) are skipped: clamping the cursor into one would otherwise
// scan reg.End itself, a page KSM was never madvised about. In incremental
// mode the budget is spent on the dirty-ring rescan queue instead.
func (k *KSM) ScanChunk(n int) {
	if k.incremental {
		k.scanIncremental(n)
		return
	}
	k.scanLinear(n)
}

// scanLinear spends a wake-up's budget on the circular cursor. Pages are
// collected into batches and run through the (possibly sharded) merge
// pipeline; batches break at pass boundaries so endPass bookkeeping — the
// unstable-index drop, the prunes, the pass snapshot — lands between the
// scans exactly where the page-at-a-time scanner put it. One quirk is
// preserved deliberately: a pass boundary fires *before* the page whose
// consumption wrapped the cursor is scanned, so that page is processed after
// endPass, in linear semantics, even when endPass just switched the scanner
// to incremental mode (the remaining budget then belongs to the incremental
// queue starting next wake-up; unreachable with IncrementalScan off, so
// off-mode CPU accounting is unchanged).
func (k *KSM) scanLinear(n int) {
	if k.scannable == 0 {
		return
	}
	if k.regionIdx >= len(k.regions) {
		// Unreachable: Unregister repairs the cursor in place (and ends the
		// pass on a wrap). Kept as defense in depth.
		k.regionIdx = 0
		k.cursor = 0
	}
	scanned := 0
	// forceOne: an endPass fired out of the empty-region skip walk, before
	// its iteration's page was found; that page still scans before any mode
	// switch is honored, as in the page-at-a-time loop.
	forceOne := false
	for scanned < n {
		if k.incremental && !forceOne {
			break
		}
		budget := n - scanned
		if forceOne {
			budget = 1
			forceOne = false
		}
		cands, wrap, passEnd, resync := k.collectLinear(budget)
		k.processBatch(cands, false)
		scanned += len(cands)
		if passEnd {
			k.endPass()
			if wrap == nil && !resync {
				forceOne = true
			}
		}
		if wrap != nil {
			one := k.candBuf[:0]
			one = append(one, *wrap)
			k.processBatch(one, false)
			scanned++
		}
		if resync {
			// Every region was empty: the maintained count was stale
			// (possible only when the scan list is rewritten directly,
			// bypassing Register/Unregister). Resync happened in collect;
			// stop without charging, as the page-at-a-time loop did.
			return
		}
	}
	k.stats.CPUBusy += simclock.Time(int64(scanned) * int64(k.cfg.ScanCostNanos) / 1000)
}

// collectLinear consumes up to budget pages from the linear cursor in scan
// order, performing the walk's side effects (region advance, dirty-ring
// resets) as it goes. It stops early at a pass boundary: passEnd reports
// that endPass is due, and wrap — when non-nil — is the page consumed in the
// boundary iteration, to be scanned by the caller after endPass runs. A
// boundary hit inside the empty-region skip walk returns passEnd with a nil
// wrap (no page was consumed yet). resync reports the all-empty defense
// path; the scannable count has been zeroed.
func (k *KSM) collectLinear(budget int) (cands []candidate, wrap *candidate, passEnd, resync bool) {
	k.candBuf = k.candBuf[:0]
	for len(k.candBuf) < budget {
		skips := 0
		for k.regions[k.regionIdx].Start >= k.regions[k.regionIdx].End {
			skips++
			if skips >= len(k.regions) {
				k.scannable = 0
				return k.candBuf, nil, false, true
			}
			if k.advanceRegion() {
				return k.candBuf, nil, true, false
			}
		}
		reg := k.regions[k.regionIdx]
		if reg.VM != k.ringVM {
			// The linear cursor is entering this VM: everything its ring
			// holds is about to be visited anyway, so restart the cycle. At
			// the switch to incremental mode each ring then holds exactly
			// the writes since the full scan last reached the VM.
			k.ringVM = reg.VM
			dropped, overflowed := reg.VM.ResetDirtyLog()
			k.observeDrain(reg.VM, dropped, overflowed)
		}
		if k.cursor < reg.Start {
			k.cursor = reg.Start
		}
		vpn := k.cursor
		k.cursor++
		if k.cursor >= reg.End {
			if k.advanceRegion() {
				k.wrapCand = candidate{vm: reg.VM, vpn: vpn, gate: k.gateFor(reg.VM, vpn), shard: -1}
				return k.candBuf, &k.wrapCand, true, false
			}
		}
		k.candBuf = append(k.candBuf, candidate{vm: reg.VM, vpn: vpn, gate: k.gateFor(reg.VM, vpn), shard: -1})
	}
	return k.candBuf, nil, false, false
}

// scanIncremental spends one wake-up's budget on the rescan queue. A new
// round — dirty-ring drains plus the previous round's gate-skipped pages —
// is built only when the queue is empty, so a page deferred by the gate is
// never revisited within the same wake-up (the two sightings stay separated
// by at least a sleep interval, as in linear mode). CPU is charged for pages
// actually scanned: a converged cluster with empty rings costs nothing.
func (k *KSM) scanIncremental(n int) {
	if len(k.incQueue) == 0 {
		k.buildRound()
	}
	cands := k.candBuf[:0]
	for len(cands) < n && len(k.incQueue) > 0 {
		r := &k.incQueue[0]
		cands = append(cands, candidate{vm: r.vm, vpn: r.start, gate: k.gateFor(r.vm, r.start), shard: -1})
		r.start++
		if r.start >= r.end {
			k.incQueue = k.incQueue[1:]
		}
	}
	if len(k.incQueue) == 0 {
		// Drop the drained round's backing array: the [1:] reslicing above
		// pins every consumed range (head included) until the array is
		// released, so a round that merely shrank the slice would hold the
		// whole round's memory across the converged idle phase.
		k.incQueue = nil
	}
	k.candBuf = cands
	if len(cands) == 0 {
		return
	}
	k.processBatch(cands, true)
	k.stats.CPUBusy += simclock.Time(int64(len(cands)) * int64(k.cfg.ScanCostNanos) / 1000)
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
	if k.unstableTotal() > k.registeredPages {
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
	for _, reg := range k.regions {
		if full[reg.VM] {
			if reg.Start < reg.End {
				k.incQueue = append(k.incQueue, incRange{vm: reg.VM, start: reg.Start, end: reg.End})
			}
			continue
		}
		k.queuePages(reg, drained[reg.VM], pendByVM[reg.VM])
	}
	if len(k.incQueue) > 0 {
		k.stats.IncrementalRounds++
	}
}

// queuePages sorts, dedups and coalesces the region's dirty plus deferred
// pages into ascending ranges on the rescan queue.
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
		k.incQueue = append(k.incQueue, incRange{vm: reg.VM, start: start, end: prev + 1})
		start, prev = v, v
	}
	k.incQueue = append(k.incQueue, incRange{vm: reg.VM, start: start, end: prev + 1})
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

// advanceRegion moves the cursor to the next region, reporting a wrap of the
// scan list — a completed pass. The caller runs endPass once any candidates
// collected before the boundary have been scanned.
func (k *KSM) advanceRegion() bool {
	k.regionIdx++
	k.cursor = 0
	if k.regionIdx >= len(k.regions) {
		k.regionIdx = 0
		return true
	}
	return false
}

// endPass finishes a full scan of all regions: stable nodes whose last
// mapper went away are pruned, and so are volatility-gate entries for pages
// that are no longer scan candidates — swapped out, unmapped, or merged into
// a stable page: such a page's next visit is a first sighting again. The
// unstable index is dropped (as in Linux) — except when
// this pass completes the streak that switches the scanner to incremental
// mode, where the index survives as the partner directory for dirtied pages.
func (k *KSM) endPass() {
	k.stats.FullScans++
	k.fullStreak++
	k.ringVM = nil
	switching := k.cfg.IncrementalScan && k.host.DirtyLogEnabled() &&
		k.fullStreak >= fullPassesBeforeIncremental
	if switching {
		k.incremental = true
	} else {
		k.dropUnstable()
	}
	k.pruneStaleStable()
	for _, g := range k.gates {
		g.sweep(k.host.Phys())
	}
	k.stableDirty = false
	k.passStart = k.stats
}

// pruneStaleStable drops stable frames nobody maps anymore (only the index's
// own reference is left). Full passes run it unconditionally; incremental
// rounds only when stableDirty says sharing may have been lost. The stale
// frames are freed in ascending frame id, an order no shard count changes;
// only they are sorted, so a pass with nothing to prune costs one refcount
// check per stable frame and allocates nothing.
func (k *KSM) pruneStaleStable() {
	pm := k.host.Phys()
	var stale []mem.FrameID
	for _, s := range k.shards {
		s.stable.walk(func(f mem.FrameID) {
			if pm.RefCount(f) == 1 { // only the index holds it
				stale = append(stale, f)
			}
		})
	}
	slices.Sort(stale)
	k.freeStable(stale)
}

// freeStable takes frames nobody maps out of the stable indexes and drops the
// indexes' references to them.
func (k *KSM) freeStable(frames []mem.FrameID) {
	pm := k.host.Phys()
	for _, f := range frames {
		if !k.removeStable(f) {
			// Un-flagging and releasing it would leave the index naming a
			// frame the allocator hands out again.
			panic(fmt.Sprintf("ksm: stable frame %d not in its shard's index", f))
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
	for _, s := range k.shards {
		for sum, bucket := range s.unstable {
			kept := bucket[:0]
			for _, ent := range bucket {
				pte, ok := ent.key.vm.ResidentPTE(ent.key.vpn)
				if !ok || pm.IsKSM(pte.Frame) || pm.Checksum(pte.Frame) != ent.checksum {
					s.unstableN--
					continue
				}
				kept = append(kept, ent)
			}
			if len(kept) == 0 {
				delete(s.unstable, sum)
			} else {
				s.unstable[sum] = kept
			}
		}
	}
}

// hugeSplitting reports whether the scanner is allowed to break huge
// mappings at all (either split policy).
func (k *KSM) hugeSplitting() bool {
	return k.cfg.SplitHugePages || k.cfg.PartialSplitHuge
}

// splitHugeFor recovers the verified-duplicate subpage at vpn from the huge
// mapping covering it, honoring the configured split policy: carving just
// that subpage out (PartialSplitHuge) or dissolving the whole huge page
// (SplitHugePages). Reports false, having touched nothing, when the policy
// leaves the mapping intact — splitting off, or a partial split aimed at the
// uncarvable head subpage — and the caller forgoes the merge.
func (k *KSM) splitHugeFor(vm *hypervisor.VMProcess, vpn mem.VPN) bool {
	head := mem.HugeAlign(vpn)
	switch {
	case k.cfg.PartialSplitHuge:
		if vpn == head {
			return false
		}
		vm.SplitHugeSubpages(head, []mem.VPN{vpn})
		k.stats.HugePartialSplits++
	case k.cfg.SplitHugePages:
		vm.SplitHuge(head)
		k.stats.HugeSplits++
	default:
		return false
	}
	return true
}

// Instrument registers the scanner's telemetry gauges on the registry.
// Cumulative counters come straight from the stats block; "ksm.pass.*"
// gauges report activity within the current pass (counter minus the
// end-of-last-pass snapshot), so a timeline shows per-pass effort even
// after the cumulative totals dwarf it. The sharing totals need a stable
// index walk, so they share one Stats snapshot per sample timestamp.
// A nil registry is a no-op, matching the rest of the metrics API.
func (k *KSM) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
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
	r.Gauge("ksm.pages_scanned", func() float64 { return float64(k.stats.PagesScanned) })
	r.Gauge("ksm.pages_merged", func() float64 {
		return float64(k.stats.StableMerges + k.stats.UnstableMerges)
	})
	r.Gauge("ksm.pages_unmerged", func() float64 { return float64(k.stats.COWBreaks) })
	r.Gauge("ksm.pages_volatile", func() float64 { return float64(k.stats.ChecksumSkips) })
	r.Gauge("ksm.full_scans", func() float64 { return float64(k.stats.FullScans) })
	r.Gauge("ksm.stable_tree_size", func() float64 { return float64(k.stableSize()) })
	r.Gauge("ksm.unstable_entries", func() float64 { return float64(k.unstableTotal()) })
	r.Gauge("ksm.pages_shared", func() float64 { return float64(snapshot().PagesShared) })
	r.Gauge("ksm.pages_sharing", func() float64 { return float64(snapshot().PagesSharing) })
	r.Gauge("ksm.saved_bytes", func() float64 { return float64(snapshot().SavedBytes) })
	r.Gauge("ksm.pass.pages_scanned", func() float64 {
		return float64(k.stats.PagesScanned - k.passStart.PagesScanned)
	})
	r.Gauge("ksm.pass.pages_merged", func() float64 {
		return float64(k.stats.StableMerges + k.stats.UnstableMerges -
			k.passStart.StableMerges - k.passStart.UnstableMerges)
	})
	r.Gauge("ksm.pass.pages_volatile", func() float64 {
		return float64(k.stats.ChecksumSkips - k.passStart.ChecksumSkips)
	})
	r.Gauge("ksm.huge_skips", func() float64 { return float64(k.stats.HugeSkips) })
	r.Gauge("ksm.huge_splits", func() float64 { return float64(k.stats.HugeSplits) })
	r.Gauge("ksm.huge_partial_splits", func() float64 { return float64(k.stats.HugePartialSplits) })
	r.Gauge("ksm.pass.sharing_lost_pages", func() float64 {
		return float64(k.stats.HugeSkips - k.passStart.HugeSkips)
	})
	r.Gauge("ksm.dirty_ring_depth", func() float64 { return float64(k.DirtyRingDepth()) })
	if len(k.shards) > 1 {
		for i, s := range k.shards {
			s := s
			r.Gauge(fmt.Sprintf("ksm.shard%d.pages_scanned", i), func() float64 { return float64(s.scanned) })
			r.Gauge(fmt.Sprintf("ksm.shard%d.stable_tree_size", i), func() float64 { return float64(s.stable.size) })
			r.Gauge(fmt.Sprintf("ksm.shard%d.unstable_entries", i), func() float64 { return float64(s.unstableN) })
		}
	}
	r.Gauge("ksm.dirty_ring_overflows", func() float64 { return float64(k.stats.RingOverflows) })
	r.Gauge("ksm.dirty_drained", func() float64 { return float64(k.stats.DirtyDrained) })
	r.Gauge("ksm.pages_scanned_incremental", func() float64 {
		return float64(k.stats.IncrementalScanned)
	})
	r.Gauge("ksm.pages_scanned_full", func() float64 {
		return float64(k.stats.PagesScanned - k.stats.IncrementalScanned)
	})
	r.Gauge("ksm.incremental_rounds", func() float64 { return float64(k.stats.IncrementalRounds) })
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

// ShardPagesScanned reports each shard's routed-candidate count — visits
// whose checksum reached the merge pipeline, each counted once — in shard
// order. The split is deterministic at every batch size and worker
// interleaving (routing is a pure function of content).
func (k *KSM) ShardPagesScanned() []uint64 {
	out := make([]uint64, len(k.shards))
	for i, s := range k.shards {
		out[i] = s.scanned
	}
	return out
}

// StableFrames exposes the stable index contents in ascending frame id (for
// the analyzer and tests).
func (k *KSM) StableFrames() []mem.FrameID {
	out := make([]mem.FrameID, 0, k.stableSize())
	for _, s := range k.shards {
		s.stable.walk(func(f mem.FrameID) { out = append(out, f) })
	}
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
	// All stable frames are now referenced only by the indexes.
	k.freeStable(k.StableFrames())
	k.dropUnstable()
	for _, g := range k.gates {
		clear(g.seen)
	}
	// Unmerging invalidates everything incremental mode assumed converged:
	// fall back to linear scanning and earn the switch again.
	k.incremental = false
	k.fullStreak = 0
	k.incQueue = nil
	k.incPending = nil
	k.incPendingSet = nil
	k.needFull = make(map[*hypervisor.VMProcess]bool)
	k.ringVM = nil
	k.stableDirty = false
}

// Package thp implements a transparent-huge-page collapse daemon in the
// style of Linux's khugepaged. The daemon scans host-virtual ranges that VMs
// register (guest RAM, like KSM's mergeable regions), HugePages-aligned run
// by run, and collapses runs that are dense, resident, and privately mapped
// into one huge mapping backed by a contiguous frame block
// (hypervisor.VMProcess.CollapseHuge).
//
// THP and KSM pull the host in opposite directions: a collapsed run raises
// TLB reach but hides its 4 KiB subpages from the merge scanner, so sharing
// is forgone (or must be bought back by splitting — ksm.Config.HugeSplit).
// The thp-tradeoff experiment in internal/core sweeps the policies against
// each other; FHPM (arXiv:2307.10618) measures the same tension on real
// hardware.
//
// Deviation from Linux noted in DESIGN.md: khugepaged defaults to
// 4096 pages every 10 s; our default is 8192 pages every 100 ms. The
// simulator compresses a day of guest runtime into minutes of virtual time,
// and the daemon must see a dense run before KSM's two-sighting checksum
// gate merges pages out of it, or `always` would never contend with KSM at
// all. The ratio of THP scan rate to KSM scan rate is what the tradeoff
// experiment actually probes.
package thp

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

// Policy mirrors /sys/kernel/mm/transparent_hugepage/enabled.
type Policy int

const (
	// PolicyNever disables collapse entirely; the daemon never starts.
	PolicyNever Policy = iota
	// PolicyAlways collapses every registered range. Linux's madvise
	// setting is not modelled: QEMU madvises all guest RAM MADV_HUGEPAGE,
	// so on the only ranges registered it selects what always does.
	PolicyAlways
	// PolicyFHPM treats every registered range as eligible (like always)
	// and additionally runs the fine-grained promote/demote state machine
	// (arXiv:2307.10618): cold zero subpages are carved out of huge
	// mappings so KSM can merge them, and quiesced carved blocks are
	// re-absorbed into full huge mappings.
	PolicyFHPM
)

// String reports the sysfs spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNever:
		return "never"
	case PolicyAlways:
		return "always"
	case PolicyFHPM:
		return "fhpm"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts the sysfs spelling back into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "never", "":
		return PolicyNever, nil
	case "always":
		return PolicyAlways, nil
	case "fhpm":
		return PolicyFHPM, nil
	}
	return PolicyNever, fmt.Errorf("thp: unknown policy %q (want never|always|fhpm)", s)
}

// Config holds the daemon's tuning parameters, mirroring
// /sys/kernel/mm/transparent_hugepage/khugepaged/*.
type Config struct {
	// Policy selects whether the daemon runs and how (never, always, fhpm).
	Policy Policy
	// ScanPages is the number of base pages examined per wake-up
	// (khugepaged's pages_to_scan).
	ScanPages int
}

// sleepMillis is the sleep between wake-ups (khugepaged's
// scan_sleep_millisecs).
const sleepMillis = 100

// maxPtesNone is the per-run budget of absent pages a collapse may zero-fill
// (khugepaged's max_ptes_none; Linux defaults to 511, this is tighter to
// keep the bloat honest at simulation scale).
const maxPtesNone = 64

// DefaultConfig returns the simulator's defaults; see the package comment
// for why the scan rate deviates from Linux.
func DefaultConfig() Config {
	return Config{
		Policy:    PolicyNever,
		ScanPages: 8192,
	}
}

// Stats aggregates daemon counters, echoing khugepaged's vmstat names.
type Stats struct {
	PagesScanned   uint64 // base pages examined
	Collapses      uint64 // runs collapsed (thp_collapse_alloc)
	CollapseFailed uint64 // runs scanned but refused or failed
	FullScans      uint64 // complete passes over all registered ranges
	// Splits counts huge mappings dissolved by anyone — the evictor, KSM's
	// split policy, or guest page releases (thp_split_page).
	Splits uint64
	// PartialSplits counts subpages carved out of huge mappings by anyone
	// (the FHPM demoter or KSM's partial-split policy).
	PartialSplits uint64
	// Demotions counts the subset of PartialSplits initiated by this
	// daemon's cold-subpage demoter.
	Demotions uint64
	// Reabsorbs counts carved blocks the daemon promoted back to full huge
	// mappings after their heat quiesced.
	Reabsorbs uint64
}

// FHPM state-machine thresholds, in units of daemon visits to one block
// (the heat-decay cadence).
const (
	// fhpmMinAge delays demotion of a freshly collapsed block: its
	// subpages start with zero heat, so the daemon waits this many decay
	// passes for the dirty log to show which ones are actually hot.
	fhpmMinAge = 2
	// fhpmQuietPromote is how many consecutive quiet (zero-heat) visits a
	// carved block must accumulate since its last carve before the daemon
	// tries to re-absorb it. The window gives KSM time to merge the carved
	// subpages first — a merged subpage blocks re-absorption (the collapse
	// refuses to break sharing), which is the preferred outcome.
	fhpmQuietPromote = 8
)

// region is one registered scan range, aligned inward to whole runs.
type region struct {
	vm         *hypervisor.VMProcess
	start, end mem.VPN // [start, end), HugePages-aligned
}

// Daemon is the khugepaged instance for one host. A nil Daemon is inert:
// every method is a no-op, so callers thread an optional daemon without
// guards.
type Daemon struct {
	host *hypervisor.Host
	cfg  Config

	regions   []region
	regionIdx int
	cursor    mem.VPN

	running bool
	stats   Stats
}

// New creates a daemon for the host and hooks huge-split notifications so
// Stats.Splits counts splits initiated elsewhere (eviction, KSM, releases).
func New(host *hypervisor.Host, cfg Config) *Daemon {
	if cfg.ScanPages <= 0 {
		panic(fmt.Sprintf("thp: ScanPages = %d", cfg.ScanPages))
	}
	d := &Daemon{host: host, cfg: cfg}
	host.OnHugeSplit = func(*hypervisor.VMProcess, mem.VPN) { d.stats.Splits++ }
	host.OnPartialSplit = func(_ *hypervisor.VMProcess, _ mem.VPN, n int) {
		d.stats.PartialSplits += uint64(n)
	}
	return d
}

// Register adds a VM's guest RAM to the scan list, aligned inward to whole
// HugePages runs (a partial run can never collapse).
func (d *Daemon) Register(vm *hypervisor.VMProcess) {
	if d == nil {
		return
	}
	base := vm.MemslotBase()
	start := base + mem.VPN(mem.HugePages-1)
	start = mem.HugeAlign(start)
	end := mem.HugeAlign(base + mem.VPN(vm.GuestPages()))
	if start >= end {
		return // guest smaller than one aligned run
	}
	for _, r := range d.regions {
		if r.vm == vm && r.start == start && r.end == end {
			return
		}
	}
	d.regions = append(d.regions, region{vm: vm, start: start, end: end})
}

// Unregister drops a VM's ranges from the scan list (the process exited).
// The circular cursor is repaired in place: removals before the
// current region shift the index down, removing the current region restarts
// at whichever region slides into its slot, and a wrap past the shrunken
// list does not count a full scan. A nil Daemon is a no-op.
func (d *Daemon) Unregister(vm *hypervisor.VMProcess) {
	if d == nil {
		return
	}
	kept := d.regions[:0]
	newIdx := d.regionIdx
	for i, r := range d.regions {
		if r.vm == vm {
			if i < d.regionIdx {
				newIdx--
			} else if i == d.regionIdx {
				d.cursor = 0
			}
			continue
		}
		kept = append(kept, r)
	}
	d.regions = kept
	d.regionIdx = newIdx
	if d.regionIdx >= len(d.regions) {
		d.regionIdx = 0
		d.cursor = 0
	}
}

// Start schedules the scan loop on the host clock; under PolicyNever it
// does nothing. A nil Daemon is a no-op.
func (d *Daemon) Start() {
	if d == nil || d.running || d.cfg.Policy == PolicyNever {
		return
	}
	d.running = true
	d.host.Clock().Every(sleepMillis*simclock.Millisecond, func(now simclock.Time) bool {
		if !d.running {
			return false
		}
		d.ScanChunk(d.cfg.ScanPages)
		return true
	})
}

// Stop halts the scan loop after the current wake-up.
func (d *Daemon) Stop() {
	if d == nil {
		return
	}
	d.running = false
}

// Stats returns a snapshot of daemon counters. Safe on a nil Daemon.
func (d *Daemon) Stats() Stats {
	if d == nil {
		return Stats{}
	}
	return d.stats
}

// ScanChunk examines up to n base pages of the registered regions, advancing a
// circular cursor run by run, and attempts to collapse each aligned run it
// lands on — the khugepaged loop, driven here by the simulated clock.
func (d *Daemon) ScanChunk(n int) {
	if d == nil || len(d.regions) == 0 || d.cfg.Policy == PolicyNever {
		return
	}
	if d.regionIdx >= len(d.regions) {
		d.regionIdx = 0
		d.cursor = 0
	}
	for scanned := 0; scanned < n; {
		reg := d.regions[d.regionIdx]
		if d.cursor < reg.start {
			d.cursor = reg.start
		}
		head := d.cursor
		d.cursor += mem.HugePages
		if d.cursor >= reg.end {
			d.advanceRegion()
		}
		if d.cfg.Policy == PolicyFHPM {
			d.fhpmVisit(reg.vm, head)
		} else {
			switch reg.vm.CollapseHuge(head, maxPtesNone) {
			case hypervisor.CollapseOK:
				d.stats.Collapses++
			case hypervisor.CollapseAlreadyHuge:
				// Nothing to do; not a failure.
			default:
				d.stats.CollapseFailed++
			}
		}
		scanned += mem.HugePages
		d.stats.PagesScanned += mem.HugePages
	}
}

// fhpmVisit is one step of the FHPM promote/demote state machine on the run
// headed at head:
//
//   - a run that is not huge gets the ordinary collapse attempt;
//   - a huge run has its dirty-ring-fed heat counters decayed (the EWMA
//     step), then cold zero-content subpages are demoted — carved out so
//     the merge scanner can fold them into the shared zero page, undoing
//     collapse's max_ptes_none zero-fill bloat without giving up the hot
//     remainder's TLB reach;
//   - a carved run whose heat has stayed quiet since the last carve is
//     offered back to CollapseHuge for re-absorption. Subpages KSM merged
//     in the meantime keep the block carved (re-absorption never breaks
//     sharing); only fully private quiesced blocks promote back.
func (d *Daemon) fhpmVisit(vm *hypervisor.VMProcess, head mem.VPN) {
	pte, ok := vm.ResidentPTE(head)
	if !ok || !pte.Huge {
		switch vm.CollapseHuge(head, maxPtesNone) {
		case hypervisor.CollapseOK:
			d.stats.Collapses++
		case hypervisor.CollapseAlreadyHuge:
			// Not a failure.
		default:
			d.stats.CollapseFailed++
		}
		return
	}
	pt := vm.HostPageTable()
	age, quiet := pt.DecaySubpageHeat(head)
	if age >= fhpmMinAge {
		heats := pt.SubpageHeats(head)
		phys := vm.Host().Phys()
		var cold []mem.VPN
		for off := mem.VPN(1); off < mem.HugePages; off++ {
			if heats[off] != 0 || pt.CarvedAt(head+off) {
				continue
			}
			if phys.IsZero(pte.Frame + mem.FrameID(off)) {
				cold = append(cold, head+off)
			}
		}
		if len(cold) > 0 {
			vm.SplitHugeSubpages(head, cold)
			d.stats.Demotions += uint64(len(cold))
			return
		}
	}
	if quiet >= fhpmQuietPromote && pt.CarvedCount(head) > 0 {
		if vm.CollapseHuge(head, maxPtesNone) == hypervisor.CollapseOK {
			d.stats.Reabsorbs++
		}
		// A refused re-absorption (carved subpages still shared) is the
		// steady state of a block contributing KSM savings, not a failure.
	}
}

// advanceRegion moves the cursor to the next region, counting a full scan
// when it wraps.
func (d *Daemon) advanceRegion() {
	d.regionIdx++
	d.cursor = 0
	if d.regionIdx >= len(d.regions) {
		d.regionIdx = 0
		d.stats.FullScans++
	}
}

// Instrument registers the daemon's telemetry gauges through gauge, which
// reads each read-only probe at every sample tick. A nil Daemon registers
// none.
func (d *Daemon) Instrument(gauge func(name string, fn func() float64)) {
	if d == nil {
		return
	}
	gauge("thp.pages_scanned", func() float64 { return float64(d.stats.PagesScanned) })
	gauge("thp.collapses", func() float64 { return float64(d.stats.Collapses) })
	gauge("thp.collapse_failed", func() float64 { return float64(d.stats.CollapseFailed) })
	gauge("thp.splits", func() float64 { return float64(d.stats.Splits) })
	gauge("thp.partial_splits", func() float64 { return float64(d.stats.PartialSplits) })
	gauge("thp.demotions", func() float64 { return float64(d.stats.Demotions) })
	gauge("thp.reabsorbs", func() float64 { return float64(d.stats.Reabsorbs) })
	gauge("thp.huge_frames", func() float64 { return float64(d.host.Phys().HugeFrames()) })
	gauge("thp.huge_coverage", func() float64 {
		pm := d.host.Phys()
		if pm.FramesInUse() == 0 {
			return 0
		}
		return float64(pm.HugeFrames()) / float64(pm.FramesInUse())
	})
}

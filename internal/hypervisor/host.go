// Package hypervisor models a process-VM host in the style of KVM
// (paper Fig. 1(b)): each guest VM is a host process whose host-virtual
// address space contains the guest's physical memory through a memslot
// mapping. Three translation layers exist, exactly as the paper's
// measurement methodology requires:
//
//	guest virtual --(guest page table, internal/guestos)--> guest physical
//	guest physical --(memslot)--> host virtual (of the VM process)
//	host virtual --(host page table, this package)--> host physical frame
//
// The host demand-pages guest memory, shares frames copy-on-write (KSM
// merges install shared mappings here), and evicts resident pages to a swap
// store when physical memory runs out. Swap-ins are the "major faults" that
// the performance model in internal/core turns into request latency.
package hypervisor

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/simclock"
)

// Config describes a host machine.
type Config struct {
	// Name labels the host in reports (e.g. "BladeCenter LS21").
	Name string
	// RAMBytes is the physical memory size (already divided by the
	// experiment's MemScale when the caller scales the scenario down).
	RAMBytes int64
	// PageSize is the base page size; zero means mem.DefaultPageSize.
	PageSize int
	// KernelReserveBytes is carved out at boot for the host kernel and
	// never available to guests.
	KernelReserveBytes int64
	// SwapBytes bounds the swap store; zero means effectively unbounded
	// (the paper's hosts never exhausted swap, only thrashed).
	SwapBytes int64
	// DirtyLog gives every VM process a bounded dirty-page ring in the
	// style of Intel PML: demand faults, swap-ins, write accesses and
	// huge-page splits append the guest frame number, and the KSM scanner
	// drains the rings for incremental rescans. Off (the default) no rings
	// exist and every code path is byte-identical to earlier releases.
	DirtyLog bool
	// DirtyRingPages bounds each VM's ring in distinct pages per drain
	// cycle (0 = mem.DefaultDirtyRingPages). An overflowing ring forces a
	// conservative full rescan of that VM.
	DirtyRingPages int
}

// Host is a physical machine running guest VM processes.
type Host struct {
	cfg   Config
	clock *simclock.Clock
	phys  *mem.PhysMem

	vms  []*VMProcess
	swap *swapStore
	// nextVMSlot numbers VM processes monotonically; slots are never reused
	// even after a kill, so ids and memslot bases stay unique for the host's
	// lifetime.
	nextVMSlot int

	// kernelFrames are the frames pinned at boot for the host kernel; the
	// leak checker needs to know who owns them.
	kernelFrames []mem.FrameID

	// claimed is the host's demand ledger: frames taken from the pool for
	// host-side needs (fault injection's memory-demand spikes) and not mapped
	// by any VM. They pin until ReleaseClaimed.
	claimed []mem.FrameID

	// evictQueue approximates LRU: mappings enter at the tail when they are
	// first mapped or swapped back in, and eviction pops from the head with
	// lazy validation. Hot pages that get evicted fault straight back in and
	// rejoin at the tail, so the head converges on the cold set. The live
	// queue is evictQueue[evictHead:]; popEvict moves the live entries back
	// to the front once half the array is consumed, so appends reuse the
	// array instead of re-growing one whose head has walked away.
	evictQueue []mapping
	evictHead  int

	// OnCOWBreak, if set, is invoked after a copy-on-write fault has been
	// resolved. The KSM scanner registers itself here to keep its sharing
	// statistics exact.
	OnCOWBreak func(vm *VMProcess, vpn mem.VPN, oldFrame mem.FrameID)

	// OnHugeSplit, if set, is invoked after a huge mapping has been split
	// back into base pages (by the evictor, KSM, or a guest release). The
	// THP daemon registers itself here to count splits it didn't initiate.
	OnHugeSplit func(vm *VMProcess, head mem.VPN)

	// OnPartialSplit, if set, is invoked after n subpages have been carved
	// out of the huge mapping headed at head (the FHPM partial split). The
	// THP daemon registers itself here to count KSM-initiated carves.
	OnPartialSplit func(vm *VMProcess, head mem.VPN, n int)

	stats HostStats
}

// HostStats aggregates host-level counters.
type HostStats struct {
	MajorFaults   uint64 // swap-ins
	SwapOuts      uint64
	COWBreaks     uint64
	MinorFaults   uint64 // first-touch demand mappings
	Collapses     uint64 // huge-page collapses (khugepaged successes)
	HugeSplits    uint64 // huge mappings split back to base pages
	PartialSplits uint64 // subpages carved out of huge mappings (FHPM)
	Reabsorbs     uint64 // carved blocks re-promoted to full huge mappings
	Kills         uint64 // VM processes torn down by KillVM
	Restarts      uint64 // VM processes rebooted by RestartVM
}

// mapping identifies one PTE in one VM process, for the eviction queue.
type mapping struct {
	vm  *VMProcess
	vpn mem.VPN
}

// NewHost boots a host with the given configuration and virtual clock.
func NewHost(cfg Config, clock *simclock.Clock) *Host {
	if cfg.PageSize == 0 {
		cfg.PageSize = mem.DefaultPageSize
	}
	if cfg.RAMBytes < int64(cfg.PageSize) {
		panic(fmt.Sprintf("hypervisor: host RAM %d smaller than a page", cfg.RAMBytes))
	}
	h := &Host{
		cfg:   cfg,
		clock: clock,
		phys:  mem.NewPhysMem(cfg.RAMBytes, cfg.PageSize),
		swap:  newSwapStore(cfg.SwapBytes, cfg.PageSize),
	}
	h.reserveKernel(cfg.KernelReserveBytes)
	return h
}

// reserveKernel pins frames for the host kernel itself. The frames carry
// host-unique content so they never merge with guest pages.
func (h *Host) reserveKernel(bytes int64) {
	pages := int(bytes / int64(h.cfg.PageSize))
	seed := mem.Combine(mem.HashString("host-kernel"), mem.HashString(h.cfg.Name))
	for i := 0; i < pages; i++ {
		id, err := h.phys.Alloc()
		if err != nil {
			panic("hypervisor: host kernel reserve exceeds RAM")
		}
		h.phys.FillFrame(id, mem.Combine(seed, mem.Seed(i)))
		h.kernelFrames = append(h.kernelFrames, id)
	}
}

// Clock returns the host's virtual clock.
func (h *Host) Clock() *simclock.Clock { return h.clock }

// Phys exposes the physical frame pool (the KSM scanner and the analyzer
// need direct frame access).
func (h *Host) Phys() *mem.PhysMem { return h.phys }

// PageSize reports the base page size in bytes.
func (h *Host) PageSize() int { return h.cfg.PageSize }

// Name reports the host's label.
func (h *Host) Name() string { return h.cfg.Name }

// VMs returns the guest VM processes in creation order.
func (h *Host) VMs() []*VMProcess { return h.vms }

// Stats returns a snapshot of host counters.
func (h *Host) Stats() HostStats { return h.stats }

// DirtyLogEnabled reports whether VM processes carry dirty-page rings.
func (h *Host) DirtyLogEnabled() bool { return h.cfg.DirtyLog }

// SwapUsedBytes reports the current swap disk occupancy. Zero-page slots
// occupy a slot but no disk bytes (see swapStore.usedBytes).
func (h *Host) SwapUsedBytes() int64 { return h.swap.usedBytes() }

// SwapUsedSlots reports how many swap slots are occupied, zero-page slots
// included.
func (h *Host) SwapUsedSlots() int { return h.swap.usedSlots() }

// FreeBytes reports unallocated physical memory.
func (h *Host) FreeBytes() int64 {
	return int64(h.phys.FreeFrames()) * int64(h.cfg.PageSize)
}

// allocFrame obtains a free frame, evicting resident pages to swap when the
// pool is exhausted.
func (h *Host) allocFrame() mem.FrameID {
	for {
		id, err := h.phys.Alloc()
		if err == nil {
			return id
		}
		if !h.evictOne() {
			panic("hypervisor: out of memory and nothing evictable (swap full or all pages shared)")
		}
	}
}

// evictOne pushes one resident page to swap using second-chance (clock)
// replacement: recently-touched pages get their referenced bit cleared and
// another trip around the queue, so the victim is globally cold regardless
// of which VM owns it — approximating Linux's global LRU. KSM stable pages
// and shared COW pages are skipped: evicting them would need reverse
// mappings we don't model, and the cold tail is dominated by private
// anonymous pages anyway.
func (h *Host) evictOne() bool {
	// Bounded: each iteration evicts, drops a stale/shared entry, or clears
	// one referenced bit; after two full rotations something must give.
	for spins := 2*h.queued() + 1; spins > 0 && h.queued() > 0; spins-- {
		m := h.popEvict()
		pte, ok := m.vm.hpt.Lookup(m.vpn)
		if !ok || pte.Swapped || pte.Frame == mem.NilFrame {
			continue // stale entry
		}
		if pte.Huge {
			// Huge mappings get the same second chance, tracked on the head
			// entry; a cold huge page is split so its base pages can be
			// evicted individually on later spins (Linux splits huge pages
			// on reclaim the same way).
			head := mem.HugeAlign(m.vpn)
			he, _ := m.vm.hpt.Lookup(head)
			if he.Accessed {
				he.Accessed = false
				m.vm.hpt.Set(head, he)
				h.evictQueue = append(h.evictQueue, m)
				continue
			}
			m.vm.SplitHuge(head)
			// SplitHuge re-queued the run's base pages; reset the budget to
			// cover the grown queue.
			spins = 2*h.queued() + 1
			continue
		}
		if h.phys.IsKSM(pte.Frame) || h.phys.RefCount(pte.Frame) > 1 {
			continue // shared: unevictable; re-queued on COW break
		}
		if pte.Accessed {
			pte.Accessed = false
			m.vm.hpt.Set(m.vpn, pte)
			h.evictQueue = append(h.evictQueue, m)
			continue
		}
		slot, ok := h.swap.out(h.phys, pte.Frame)
		if !ok {
			// Swap full; put the mapping back and give up.
			h.evictQueue = append(h.evictQueue, m)
			return false
		}
		h.phys.DecRef(pte.Frame)
		m.vm.hpt.Set(m.vpn, mem.PTE{Frame: mem.NilFrame, Swapped: true, SwapSlot: slot, Writable: pte.Writable})
		m.vm.stats.ResidentPages--
		m.vm.stats.SwappedPages++
		h.stats.SwapOuts++
		return true
	}
	return false
}

// noteMapped registers a freshly mapped page with the eviction queue.
func (h *Host) noteMapped(vm *VMProcess, vpn mem.VPN) {
	h.evictQueue = append(h.evictQueue, mapping{vm: vm, vpn: vpn})
}

// queued reports the eviction queue's live length.
func (h *Host) queued() int { return len(h.evictQueue) - h.evictHead }

// popEvict takes the eviction queue's head entry. Once the consumed prefix
// is half the array, the live entries move to the front: each move copies
// fewer entries than were popped since the last, so a pop is amortized O(1)
// and the array stays at most twice the live queue.
func (h *Host) popEvict() mapping {
	m := h.evictQueue[h.evictHead]
	h.evictHead++
	if 2*h.evictHead >= len(h.evictQueue) {
		n := copy(h.evictQueue, h.evictQueue[h.evictHead:])
		h.evictQueue = h.evictQueue[:n]
		h.evictHead = 0
	}
	return m
}

// now returns the current virtual time as an int64 for PTE bookkeeping.
func (h *Host) now() int64 { return int64(h.clock.Now()) }

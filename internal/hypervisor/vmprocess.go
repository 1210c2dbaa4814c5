package hypervisor

import (
	"fmt"

	"repro/internal/mem"
)

// VMConfig describes one guest VM process.
type VMConfig struct {
	// Name labels the VM in reports ("VM 1").
	Name string
	// GuestMemBytes is the guest physical memory size.
	GuestMemBytes int64
	// OverheadBytes models the VM process's own working memory (device
	// emulation state, I/O buffers — what the paper calls "the memory used
	// by the guest VM itself", which it found to be quite small).
	OverheadBytes int64
	// Seed randomizes per-VM layout and private content, standing in for
	// ASLR and boot-time nondeterminism.
	Seed mem.Seed
}

// VMStats aggregates per-VM paging counters.
type VMStats struct {
	ResidentPages int
	SwappedPages  int
	MajorFaults   uint64
	MinorFaults   uint64
	COWBreaks     uint64
}

// VMProcess is a guest VM implemented as a host process (the KVM model).
// Guest physical memory occupies one memslot in the process's host-virtual
// address space; the host page table maps host-virtual pages to physical
// frames on demand.
type VMProcess struct {
	host *Host
	id   int
	cfg  VMConfig

	guestPages  int
	memslotBase mem.VPN // host-virtual page of guest physical page 0
	hpt         *mem.PageTable

	overheadStart mem.VPN
	overheadPages int

	// dead marks a process torn down by KillVM. A dead VM owns no frames or
	// swap slots; touching its memory is a bug and panics.
	dead bool

	// dirty is the VM's PML-style dirty-page ring (nil unless the host was
	// configured with DirtyLog). It records guest frame numbers.
	dirty *mem.DirtyRing
	// wsEWMA smooths the per-drain distinct-dirty-page counts into a
	// working-set estimate; wsValid is false until the first drain.
	wsEWMA  float64
	wsValid bool

	stats VMStats
}

// memslotSpacing leaves a gap between VM processes' nominal host-virtual
// ranges so that per-process addresses are visibly distinct in dumps.
const memslotSpacing = 1 << 24 // pages

// NewVM creates and boots a guest VM process on the host. The VM's own
// overhead pages are populated immediately (the emulator allocates its
// working set at startup); guest memory is demand-paged.
func (h *Host) NewVM(cfg VMConfig) *VMProcess {
	if cfg.GuestMemBytes < int64(h.cfg.PageSize) {
		panic(fmt.Sprintf("hypervisor: guest memory %d smaller than a page", cfg.GuestMemBytes))
	}
	// The slot counter is monotonic, never reused: a restarted VM gets a
	// fresh id and memslot base, so stale references to the dead process can
	// never alias the new one. With no kills this numbering is identical to
	// the historical len(h.vms)+1.
	h.nextVMSlot++
	vm := &VMProcess{
		host:        h,
		id:          h.nextVMSlot,
		cfg:         cfg,
		guestPages:  int(cfg.GuestMemBytes / int64(h.cfg.PageSize)),
		memslotBase: mem.VPN(uint64(h.nextVMSlot) * memslotSpacing),
		hpt:         mem.NewPageTable(),
	}
	if h.cfg.DirtyLog {
		vm.dirty = mem.NewDirtyRing(h.cfg.DirtyRingPages)
	}
	vm.overheadStart = vm.memslotBase + mem.VPN(vm.guestPages) + 256
	vm.overheadPages = int(cfg.OverheadBytes / int64(h.cfg.PageSize))
	h.vms = append(h.vms, vm)
	vm.populateOverhead()
	return vm
}

// populateOverhead fills the VM process's private working memory with
// per-VM content; it never merges across VMs.
func (vm *VMProcess) populateOverhead() {
	seed := mem.Combine(mem.HashString("vm-overhead"), vm.cfg.Seed)
	for i := 0; i < vm.overheadPages; i++ {
		vpn := vm.overheadStart + mem.VPN(i)
		f := vm.host.allocFrame()
		vm.host.phys.FillFrame(f, mem.Combine(seed, mem.Seed(i)))
		vm.hpt.Set(vpn, mem.PTE{Frame: f, Writable: true, LastUse: vm.host.now()})
		vm.stats.ResidentPages++
		vm.host.noteMapped(vm, vpn)
	}
}

// ID reports the VM's 1-based slot number on its host. Slots are never
// reused, so a restarted VM has a fresh ID.
func (vm *VMProcess) ID() int { return vm.id }

// Alive reports whether the VM process is still running (false after
// Host.KillVM).
func (vm *VMProcess) Alive() bool { return !vm.dead }

// Name reports the VM's label.
func (vm *VMProcess) Name() string { return vm.cfg.Name }

// Seed reports the VM's layout-randomization seed.
func (vm *VMProcess) Seed() mem.Seed { return vm.cfg.Seed }

// Host returns the host machine.
func (vm *VMProcess) Host() *Host { return vm.host }

// PageSize reports the host's page size in bytes.
func (vm *VMProcess) PageSize() int { return vm.host.PageSize() }

// GuestPages reports the guest physical memory size in pages.
func (vm *VMProcess) GuestPages() int { return vm.guestPages }

// Stats returns a snapshot of the VM's paging counters.
func (vm *VMProcess) Stats() VMStats { return vm.stats }

// HostPageTable exposes the VM process's host page table; the analyzer and
// the KSM scanner walk it.
func (vm *VMProcess) HostPageTable() *mem.PageTable { return vm.hpt }

// MemslotBase reports the host-virtual page where guest physical page 0 is
// mapped (the KVM memslot translation the paper's kernel module extracts).
func (vm *VMProcess) MemslotBase() mem.VPN { return vm.memslotBase }

// GPFNToHostVPN translates a guest physical page number to the VM process's
// host-virtual page number.
func (vm *VMProcess) GPFNToHostVPN(gpfn uint64) mem.VPN {
	if gpfn >= uint64(vm.guestPages) {
		panic(fmt.Sprintf("hypervisor: gpfn %d outside guest memory (%d pages)", gpfn, vm.guestPages))
	}
	return vm.memslotBase + mem.VPN(gpfn)
}

// OverheadRegion reports the host-virtual range of the VM process's own
// working memory (outside guest RAM), for the analyzer.
func (vm *VMProcess) OverheadRegion() (start, end mem.VPN) {
	return vm.overheadStart, vm.overheadStart + mem.VPN(vm.overheadPages)
}

// MergeableRegion describes a host-virtual range registered with KSM. KVM
// madvises all guest RAM as MERGEABLE; the VM process's own overhead is not
// registered, matching QEMU.
type MergeableRegion struct {
	VM         *VMProcess
	Start, End mem.VPN // [Start, End)
}

// MergeableRegions reports the VM's KSM-registered ranges.
func (vm *VMProcess) MergeableRegions() []MergeableRegion {
	return []MergeableRegion{{
		VM:    vm,
		Start: vm.memslotBase,
		End:   vm.memslotBase + mem.VPN(vm.guestPages),
	}}
}

// ensureMapped resolves a host-virtual page to a frame, demand-paging or
// swapping in as needed. With forWrite set, COW mappings are broken.
//
// Dirty logging: any fault that (re)materializes the page appends it to the
// VM's dirty ring — a fresh demand-zero page or a swapped-in page is new
// content as far as the incremental scanner is concerned — and so does every
// write access. Read touches of resident pages change nothing and log
// nothing.
func (vm *VMProcess) ensureMapped(vpn mem.VPN, forWrite bool) mem.FrameID {
	if vm.dead {
		panic(fmt.Sprintf("hypervisor: memory access on killed %s", vm.cfg.Name))
	}
	pte, ok := vm.hpt.Lookup(vpn)
	switch {
	case !ok:
		// Minor fault: first touch of an anonymous page.
		f := vm.host.allocFrame()
		vm.hpt.Set(vpn, mem.PTE{Frame: f, Writable: true, LastUse: vm.host.now(), Accessed: true})
		vm.stats.ResidentPages++
		vm.stats.MinorFaults++
		vm.host.stats.MinorFaults++
		vm.host.noteMapped(vm, vpn)
		vm.logDirty(vpn)
		return f
	case pte.Swapped:
		// Major fault: bring the page back from swap. Shared pages are never
		// evicted, so a swapped-in page is always private (no COW to break).
		f := vm.host.allocFrame()
		vm.host.swap.in(vm.host.phys, pte.SwapSlot, f)
		vm.hpt.Set(vpn, mem.PTE{Frame: f, Writable: pte.Writable, LastUse: vm.host.now(), Accessed: true})
		vm.stats.ResidentPages++
		vm.stats.SwappedPages--
		vm.stats.MajorFaults++
		vm.host.stats.MajorFaults++
		vm.host.noteMapped(vm, vpn)
		vm.logDirty(vpn)
		return f
	default:
		if pte.Huge {
			// Touch bookkeeping lives on the stored head entry; middle PTEs
			// are synthesized. Huge mappings are never COW (collapse refuses
			// shared runs), so writes need no break.
			head := mem.HugeAlign(vpn)
			he, _ := vm.hpt.Lookup(head)
			he.LastUse = vm.host.now()
			he.Accessed = true
			vm.hpt.Set(head, he)
			if forWrite {
				vm.logDirty(vpn)
			}
			return pte.Frame
		}
		pte.LastUse = vm.host.now()
		pte.Accessed = true
		if forWrite {
			vm.logDirty(vpn)
			if pte.COW {
				return vm.breakCOW(vpn, pte)
			}
		}
		vm.hpt.Set(vpn, pte)
		return pte.Frame
	}
}

// breakCOW resolves a write fault on a shared mapping by copying the page.
func (vm *VMProcess) breakCOW(vpn mem.VPN, pte mem.PTE) mem.FrameID {
	old := pte.Frame
	f := vm.host.allocFrame()
	vm.host.phys.CopyFrame(f, old)
	vm.host.phys.DecRef(old)
	vm.hpt.Set(vpn, mem.PTE{Frame: f, Writable: true, LastUse: vm.host.now(), Accessed: true})
	vm.stats.COWBreaks++
	vm.host.stats.COWBreaks++
	vm.host.noteMapped(vm, vpn)
	if vm.host.OnCOWBreak != nil {
		vm.host.OnCOWBreak(vm, vpn, old)
	}
	return f
}

// TouchGuestPage simulates a guest access to a guest physical page.
func (vm *VMProcess) TouchGuestPage(gpfn uint64, write bool) {
	vm.ensureMapped(vm.GPFNToHostVPN(gpfn), write)
}

// ReadGuestPage returns a read-only view of a guest physical page's bytes,
// faulting it in if necessary.
func (vm *VMProcess) ReadGuestPage(gpfn uint64) []byte {
	f := vm.ensureMapped(vm.GPFNToHostVPN(gpfn), false)
	return vm.host.phys.Bytes(f)
}

// WriteGuestPage writes bytes into a guest physical page at off.
func (vm *VMProcess) WriteGuestPage(gpfn uint64, off int, data []byte) {
	f := vm.ensureMapped(vm.GPFNToHostVPN(gpfn), true)
	vm.host.phys.Write(f, off, data)
}

// FillGuestPage overwrites a whole guest physical page with deterministic
// content derived from seed.
func (vm *VMProcess) FillGuestPage(gpfn uint64, seed mem.Seed) {
	f := vm.ensureMapped(vm.GPFNToHostVPN(gpfn), true)
	vm.host.phys.FillFrame(f, seed)
}

// ZeroGuestPage clears a guest physical page to zeros (what the guest GC's
// sweep does).
func (vm *VMProcess) ZeroGuestPage(gpfn uint64) {
	f := vm.ensureMapped(vm.GPFNToHostVPN(gpfn), true)
	vm.host.phys.ZeroFrame(f)
}

// ReleaseGuestPage models the guest returning a page to the hypervisor
// (free-page hinting / balloon deflate): the backing frame or swap slot is
// released and the next touch demand-faults a fresh zero page.
func (vm *VMProcess) ReleaseGuestPage(gpfn uint64) {
	vpn := vm.GPFNToHostVPN(gpfn)
	if pte, ok := vm.hpt.Lookup(vpn); ok && pte.Huge {
		// The page is inside a huge mapping; Linux splits the huge page
		// before freeing a subpage, and so do we.
		vm.SplitHuge(mem.HugeAlign(vpn))
	}
	pte, ok := vm.hpt.Delete(vpn)
	if !ok {
		return
	}
	if pte.Swapped {
		vm.host.swap.drop(vm.host.phys, pte.SwapSlot)
		vm.stats.SwappedPages--
		return
	}
	vm.host.phys.DecRef(pte.Frame)
	vm.stats.ResidentPages--
}

// ResolveResident reports the frame currently backing a host-virtual page,
// without faulting, swapping in, or updating access state. The KSM scanner
// and the analyzer use it.
func (vm *VMProcess) ResolveResident(vpn mem.VPN) (mem.FrameID, bool) {
	pte, ok := vm.hpt.Lookup(vpn)
	if !ok || pte.Swapped {
		return mem.NilFrame, false
	}
	return pte.Frame, true
}

// ResidentPTE reports the full PTE backing a resident host-virtual page,
// without faulting, swapping in, or updating access state. Unlike
// ResolveResident it exposes the Huge and COW flags, which the KSM scanner
// and the THP daemon dispatch on.
func (vm *VMProcess) ResidentPTE(vpn mem.VPN) (mem.PTE, bool) {
	pte, ok := vm.hpt.Lookup(vpn)
	if !ok || pte.Swapped {
		return mem.PTE{}, false
	}
	return pte, true
}

// RemapShared replaces the frame behind vpn with an already-referenced
// shared frame, write-protecting the mapping. The caller (KSM) must have
// IncRef'd shared before calling; the old frame's reference is dropped.
func (vm *VMProcess) RemapShared(vpn mem.VPN, shared mem.FrameID) {
	pte, ok := vm.hpt.Lookup(vpn)
	if !ok || pte.Swapped {
		panic("hypervisor: RemapShared on non-resident page")
	}
	if pte.Huge {
		panic("hypervisor: RemapShared inside a huge mapping (split it first)")
	}
	vm.host.phys.DecRef(pte.Frame)
	pte.Frame = shared
	pte.COW = true
	vm.hpt.Set(vpn, pte)
}

// logDirty appends a guest-RAM page to the VM's dirty ring, if logging is
// on. Pages outside the memslot (VM overhead) are never scan candidates and
// are not logged. The ring stores guest frame numbers, as PML logs GPAs.
func (vm *VMProcess) logDirty(vpn mem.VPN) {
	if vm.dirty == nil {
		return
	}
	if vpn < vm.memslotBase || vpn >= vm.memslotBase+mem.VPN(vm.guestPages) {
		return
	}
	vm.dirty.Log(vpn - vm.memslotBase)
}

// DrainDirtyLog returns the host-virtual page numbers dirtied since the
// last drain (append order) plus the log-full flag, and starts a fresh
// cycle. With an overflowed cycle the list is incomplete and the caller
// must rescan the whole VM. Nil/false when dirty logging is off.
//
// Every drain also feeds the per-subpage heat counters of huge mappings
// (mem.PageTable.NoteSubpageDirty): one event per distinct dirty page per
// cycle, which is exactly the PML-grade write signal the FHPM daemon's
// demote/promote decisions run on.
func (vm *VMProcess) DrainDirtyLog() ([]mem.VPN, bool) {
	if vm.dirty == nil {
		return nil, false
	}
	gfns, full := vm.dirty.Drain()
	for i, g := range gfns {
		vpn := vm.memslotBase + g
		gfns[i] = vpn
		vm.hpt.NoteSubpageDirty(vpn)
	}
	return gfns, full
}

// ResetDirtyLog discards the current dirty cycle — a linear full scan is
// about to visit every page anyway — reporting how many distinct pages were
// pending and whether the cycle had overflowed. When the VM holds huge
// mappings the pending pages still feed the per-subpage heat counters
// before being discarded, so the FHPM heat signal survives linear scans.
func (vm *VMProcess) ResetDirtyLog() (n int, overflowed bool) {
	if vm.dirty == nil {
		return 0, false
	}
	if vm.hpt.HugeMappings() == 0 {
		return vm.dirty.Reset()
	}
	gfns, full := vm.dirty.Drain()
	for _, g := range gfns {
		vm.hpt.NoteSubpageDirty(vm.memslotBase + g)
	}
	return len(gfns), full
}

// DirtyLogDepth reports the current cycle's distinct dirty pages (telemetry).
func (vm *VMProcess) DirtyLogDepth() int {
	if vm.dirty == nil {
		return 0
	}
	return vm.dirty.Depth()
}

// DirtyLogOverflows reports the lifetime count of overflowed cycles.
func (vm *VMProcess) DirtyLogOverflows() uint64 {
	if vm.dirty == nil {
		return 0
	}
	return vm.dirty.Overflows()
}

// ObserveDirtyDrain feeds one drain cycle's distinct-dirty-page count into
// the VM's working-set estimator (an EWMA with α = ½, so the estimate
// tracks churn shifts within a couple of scan intervals).
func (vm *VMProcess) ObserveDirtyDrain(pages int) {
	if !vm.wsValid {
		vm.wsEWMA = float64(pages)
		vm.wsValid = true
		return
	}
	vm.wsEWMA = (vm.wsEWMA + float64(pages)) / 2
}

// WorkingSetPages reports the dirty-log working-set estimate in pages.
// ok is false when dirty logging is off or no drain has been observed yet —
// consumers must then treat the VM as hot (unknown ≠ cold).
func (vm *VMProcess) WorkingSetPages() (int, bool) {
	if !vm.wsValid {
		return 0, false
	}
	return int(vm.wsEWMA + 0.5), true
}

// WriteProtect marks the mapping COW so the next write faults (used when a
// page becomes a KSM stable page in place).
func (vm *VMProcess) WriteProtect(vpn mem.VPN) {
	pte, ok := vm.hpt.Lookup(vpn)
	if !ok || pte.Swapped {
		panic("hypervisor: WriteProtect on non-resident page")
	}
	if pte.Huge {
		panic("hypervisor: WriteProtect inside a huge mapping (split it first)")
	}
	pte.COW = true
	vm.hpt.Set(vpn, pte)
}

// Package memanalysis implements the paper's measurement methodology (§2.A):
// it fully identifies the usage of each host physical page frame by the
// component that allocated it, by walking all three address-translation
// layers — guest page tables, the KVM memslot, and the host page tables —
// exactly as the paper's crash-dump analysis and host kernel module do.
//
// Shared frames are accounted with the paper's owner-oriented approach: one
// process owns the frame (a Java process with the smallest PID when any
// Java process maps it) and is charged its full size; every other mapper
// uses it for free, which directly measures the marginal memory cost of one
// more VM. The distribution-oriented alternative (Linux PSS) is implemented
// alongside for comparison.
package memanalysis

import (
	"cmp"
	"slices"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// UserKind classifies who maps a frame.
type UserKind uint8

const (
	// KindProcess is a guest user process mapping (via its page table).
	KindProcess UserKind = iota
	// KindKernel is guest kernel memory (text, data, slab, unmapped cache).
	KindKernel
	// KindVMOverhead is the VM process's own working memory.
	KindVMOverhead
)

// PageUser is one mapper of one frame.
type PageUser struct {
	VM   *hypervisor.VMProcess
	Kind UserKind
	// Proc is set for KindProcess.
	Proc *guestos.Process
	// Category is the VMA category for processes, the kernel page class
	// for kernel pages, and "vm-overhead" for VM overhead.
	Category string
}

func (u PageUser) isJava() bool { return u.Kind == KindProcess && u.Proc.IsJava }

// Analysis is a frozen snapshot of frame attribution.
type Analysis struct {
	pageSize int
	phys     *mem.PhysMem
	// users holds every mapper of every frame, grouped by frame in frame
	// order: frame f's mappers are users[head[f]:head[f+1]], its owner first.
	users []PageUser
	head  []int32
	// frames and shared count the frames with one or more and with more
	// than one mapper.
	frames, shared int
}

// walk is what the translation walk finds, in walk order: frames[i] is
// mapped by mappers[mapper[i]], mappers being the run of distinct mappers
// (one per VMA or kernel page class).
type walk struct {
	frames  []mem.FrameID
	mapper  []int32
	mappers []PageUser
}

func (w *walk) add(f mem.FrameID, u PageUser) {
	if n := len(w.mappers); n == 0 || w.mappers[n-1] != u {
		w.mappers = append(w.mappers, u)
	}
	w.frames = append(w.frames, f)
	w.mapper = append(w.mapper, int32(len(w.mappers)-1))
}

// Analyze walks every translation layer of every guest and attributes every
// resident host frame. The kernels slice supplies the guest-OS view of each
// VM (in the same order as host.VMs()).
func Analyze(host *hypervisor.Host, kernels []*guestos.Kernel) *Analysis {
	var w walk
	for _, k := range kernels {
		w.guest(k)
	}
	// A stable counting sort by frame: each frame's mappers keep walk order.
	a := &Analysis{pageSize: host.PageSize(), phys: host.Phys(), head: make([]int32, host.Phys().TotalFrames()+1)}
	for _, f := range w.frames {
		a.head[f]++
	}
	for f := 1; f < len(a.head); f++ {
		a.head[f] += a.head[f-1]
	}
	a.users = make([]PageUser, len(w.frames))
	for i := len(w.frames) - 1; i >= 0; i-- {
		a.head[w.frames[i]]--
		a.users[a.head[w.frames[i]]] = w.mappers[w.mapper[i]]
	}
	// Move each frame's owner to the front by the paper's rule: if any Java
	// process maps the frame, the Java process with the smallest PID owns it
	// (ties broken by VM id); otherwise the first mapper in deterministic
	// walk order owns it.
	a.eachFrame(func(_ mem.FrameID, us []PageUser) {
		a.frames++
		if len(us) > 1 {
			a.shared++
		}
		best := 0
		for i := 1; i < len(us); i++ {
			if ownerLess(us[i], us[best]) {
				best = i
			}
		}
		us[0], us[best] = us[best], us[0]
	})
	return a
}

// guest records every mapper within one guest VM, walking the memslot and
// host page table layers of the kernel's VM process.
func (w *walk) guest(k *guestos.Kernel) {
	vm := k.VM()

	// Kernel-owned pages (text/data/slab/unmapped page cache).
	for _, kp := range k.KernelOwnedPages() {
		if f, ok := vm.ResolveResident(vm.GPFNToHostVPN(kp.GPFN)); ok {
			w.add(f, PageUser{VM: vm, Kind: KindKernel, Category: string(kp.Class)})
		}
	}

	// User processes: guest virtual → guest physical → host virtual → frame.
	for _, p := range k.Processes() {
		for _, v := range p.SortedVMAs() {
			for vpn := v.Start; vpn < v.End; vpn++ {
				pte, ok := p.PageTable().Lookup(vpn)
				if !ok {
					continue
				}
				f, ok := vm.ResolveResident(vm.GPFNToHostVPN(uint64(pte.Frame)))
				if !ok {
					continue // swapped out: not host physical memory
				}
				w.add(f, PageUser{VM: vm, Kind: KindProcess, Proc: p, Category: v.Category})
			}
		}
	}

	// The VM process's own overhead pages.
	start, end := vm.OverheadRegion()
	for vpn := start; vpn < end; vpn++ {
		if f, ok := vm.ResolveResident(vpn); ok {
			w.add(f, PageUser{VM: vm, Kind: KindVMOverhead, Category: "vm-overhead"})
		}
	}
}

// eachFrame calls fn for every attributed frame in frame order with its
// mappers, owner first.
func (a *Analysis) eachFrame(fn func(f mem.FrameID, us []PageUser)) {
	for f := 0; f+1 < len(a.head); f++ {
		if lo, hi := a.head[f], a.head[f+1]; hi > lo {
			fn(mem.FrameID(f), a.users[lo:hi])
		}
	}
}

// ownerLess orders candidate owners: Java processes first (smallest PID,
// then VM id), then everything else in walk order (stable because we only
// replace on strict improvement).
func ownerLess(x, y PageUser) bool {
	if !x.isJava() || !y.isJava() {
		return x.isJava() && !y.isJava() // non-Java: keep first-walked
	}
	return cmp.Or(cmp.Compare(x.Proc.PID, y.Proc.PID), cmp.Compare(x.VM.ID(), y.VM.ID())) < 0
}

// PageSize reports the analyzed page size.
func (a *Analysis) PageSize() int { return a.pageSize }

// SharedFrameCount reports how many frames have more than one mapper.
func (a *Analysis) SharedFrameCount() int { return a.shared }

// TotalGuestBytes reports all host physical memory attributed to guests.
func (a *Analysis) TotalGuestBytes() int64 {
	return int64(a.frames) * int64(a.pageSize)
}

// FrameSizeCounts attributes the analyzed frames by backing page size:
// hugeBacked frames are subpages of transparent huge pages (mapped by one
// 2 MiB entry), base frames are ordinary 4 KiB mappings.
func (a *Analysis) FrameSizeCounts() (hugeBacked, base int) {
	a.eachFrame(func(f mem.FrameID, _ []PageUser) {
		if a.phys.IsHugeFrame(f) {
			hugeBacked++
		} else {
			base++
		}
	})
	return hugeBacked, base
}

// TLBEntries is the modeled TLB size for the reach estimate: 1024 entries,
// the order of a unified L2 TLB on the paper's era of x86 hosts.
const TLBEntries = 1024

// EstimatedTLBReachBytes estimates how much of the attributed memory the
// modeled TLB can cover: each distinct huge block with attributed
// huge-backed frames spends one entry (the huge mapping covers the whole
// block — for a partially-split block, the uncarved remainder), and each
// base frame spends one entry on itself. Reach is the TLB entry count times
// the average bytes per mapping entry. Carved-out subpages of a partially
// split block are base frames, so they cost one entry each — exactly the
// per-subpage granularity FHPM trades against sharing.
func (a *Analysis) EstimatedTLBReachBytes() int64 {
	_, base := a.FrameSizeCounts()
	// Frame order visits a block's frames in one run; ids start at 1.
	blocks, last := 0, mem.FrameID(0)
	a.eachFrame(func(f mem.FrameID, _ []PageUser) {
		if b := f/mem.HugePages + 1; b != last && a.phys.IsHugeFrame(f) {
			blocks, last = blocks+1, b
		}
	})
	entries := blocks + base
	if entries == 0 {
		return 0
	}
	return TLBEntries * a.TotalGuestBytes() / int64(entries)
}

// TotalSavingsBytes reports cluster-wide TPS savings: for each shared frame,
// every mapper beyond the owner would otherwise need its own copy.
func (a *Analysis) TotalSavingsBytes() int64 {
	return int64(len(a.users)-a.frames) * int64(a.pageSize)
}

// VMBreakdown is one guest VM's bar in Fig. 2 / Fig. 4.
type VMBreakdown struct {
	VMName string
	VMID   int
	// Owner-oriented physical usage in bytes by component.
	JavaBytes       int64
	OtherProcBytes  int64
	KernelBytes     int64
	VMOverheadBytes int64
	// SavingsBytes is guest memory this VM maps without owning — the
	// "Saving by TPS in guest" bars.
	SavingsBytes int64
}

// Total reports the VM's owner-oriented physical usage.
func (b VMBreakdown) Total() int64 {
	return b.JavaBytes + b.OtherProcBytes + b.KernelBytes + b.VMOverheadBytes
}

// VMBreakdowns computes the Fig. 2 / Fig. 4 view, ordered by VM id.
func (a *Analysis) VMBreakdowns() []VMBreakdown {
	byVM := map[int]*VMBreakdown{}
	get := func(vm *hypervisor.VMProcess) *VMBreakdown {
		b, ok := byVM[vm.ID()]
		if !ok {
			b = &VMBreakdown{VMName: vm.Name(), VMID: vm.ID()}
			byVM[vm.ID()] = b
		}
		return b
	}
	ps := int64(a.pageSize)
	a.eachFrame(func(_ mem.FrameID, us []PageUser) {
		o := us[0]
		b := get(o.VM)
		switch {
		case o.Kind == KindKernel:
			b.KernelBytes += ps
		case o.Kind == KindVMOverhead:
			b.VMOverheadBytes += ps
		case o.isJava():
			b.JavaBytes += ps
		default:
			b.OtherProcBytes += ps
		}
		// TPS savings: every mapping of the frame beyond the single owned
		// one uses the page for free — without sharing, each of those PTEs
		// would need its own frame. This counts KSM-merged zero pages many
		// times within one VM, exactly as KSM's own saved-memory accounting
		// does.
		for _, u := range us[1:] {
			get(u.VM).SavingsBytes += ps
		}
	})
	out := make([]VMBreakdown, 0, len(byVM))
	for _, b := range byVM {
		out = append(out, *b)
	}
	slices.SortFunc(out, func(x, y VMBreakdown) int { return cmp.Compare(x.VMID, y.VMID) })
	return out
}

// CategoryUsage is one Table IV category of one Java process.
type CategoryUsage struct {
	// MappedBytes is all resident memory the process maps in the category.
	MappedBytes int64
	// OwnedBytes is the owner-oriented physical usage (mapped minus what
	// other owners provide).
	OwnedBytes int64
	// SharedBytes = Mapped - Owned: the graded "Shared with TPS" portion of
	// the Fig. 3 / Fig. 5 bars.
	SharedBytes int64
}

// JavaBreakdown is one Java process's stacked bar in Fig. 3 / Fig. 5.
type JavaBreakdown struct {
	VMName   string
	VMID     int
	ProcName string
	PID      int
	ByCat    map[string]CategoryUsage
}

// TotalMapped sums mapped bytes across categories.
func (b JavaBreakdown) TotalMapped() int64 {
	var t int64
	for _, c := range b.ByCat {
		t += c.MappedBytes
	}
	return t
}

// TotalShared sums TPS-shared bytes across categories.
func (b JavaBreakdown) TotalShared() int64 {
	var t int64
	for _, c := range b.ByCat {
		t += c.SharedBytes
	}
	return t
}

// JavaBreakdowns computes the per-JVM category view, ordered by VM id then
// PID.
func (a *Analysis) JavaBreakdowns() []JavaBreakdown {
	type procKey struct{ vmID, pid int }
	byProc := map[procKey]*JavaBreakdown{}
	ps := int64(a.pageSize)
	a.eachFrame(func(_ mem.FrameID, us []PageUser) {
		// Every PTE counts: a process mapping one KSM-merged frame many
		// times (zeroed heap regions, recycled work areas) occupies that
		// many virtual pages, of which exactly one — the owner's — costs
		// physical memory.
		for i, u := range us {
			if !u.isJava() {
				continue
			}
			k := procKey{u.VM.ID(), u.Proc.PID}
			b, ok := byProc[k]
			if !ok {
				b = &JavaBreakdown{VMName: u.VM.Name(), VMID: u.VM.ID(),
					ProcName: u.Proc.Name, PID: u.Proc.PID, ByCat: map[string]CategoryUsage{}}
				byProc[k] = b
			}
			cu := b.ByCat[u.Category]
			cu.MappedBytes += ps
			if i == 0 {
				cu.OwnedBytes += ps
			} else {
				cu.SharedBytes += ps
			}
			b.ByCat[u.Category] = cu
		}
	})
	out := make([]JavaBreakdown, 0, len(byProc))
	for _, b := range byProc {
		out = append(out, *b)
	}
	slices.SortFunc(out, func(x, y JavaBreakdown) int {
		return cmp.Or(cmp.Compare(x.VMID, y.VMID), cmp.Compare(x.PID, y.PID))
	})
	return out
}

// PSS computes the distribution-oriented usage (Linux smaps PSS) of one
// process in bytes: each mapped frame contributes pageSize divided by its
// total mapper count.
func (a *Analysis) PSS(proc *guestos.Process) float64 {
	var pss float64
	a.eachFrame(func(_ mem.FrameID, us []PageUser) {
		for _, u := range us {
			if u.Kind == KindProcess && u.Proc == proc {
				pss += float64(a.pageSize) / float64(len(us))
			}
		}
	})
	return pss
}

// OwnerOrientedBytes reports one process's owner-oriented usage in bytes.
func (a *Analysis) OwnerOrientedBytes(proc *guestos.Process) int64 {
	var t int64
	a.eachFrame(func(_ mem.FrameID, us []PageUser) {
		if us[0].Kind == KindProcess && us[0].Proc == proc {
			t += int64(a.pageSize)
		}
	})
	return t
}

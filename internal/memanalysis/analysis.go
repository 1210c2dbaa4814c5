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
	"sort"

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
	// users lists every (frame, user) mapping pair.
	users map[mem.FrameID][]PageUser
	// owner[frame] is the index into users[frame] of the owning mapper.
	owner map[mem.FrameID]int
}

// Analyze walks every translation layer of every guest and attributes every
// resident host frame. The kernels slice supplies the guest-OS view of each
// VM (in the same order as host.VMs()).
func Analyze(host *hypervisor.Host, kernels []*guestos.Kernel) *Analysis {
	a := &Analysis{
		pageSize: host.PageSize(),
		phys:     host.Phys(),
		users:    make(map[mem.FrameID][]PageUser),
		owner:    make(map[mem.FrameID]int),
	}
	for _, k := range kernels {
		a.walkGuest(k)
	}
	a.chooseOwners()
	return a
}

// walkGuest records every mapper within one guest VM, walking the memslot
// and host page table layers of the kernel's VM process.
func (a *Analysis) walkGuest(k *guestos.Kernel) {
	vm := k.VM()

	// Kernel-owned pages (text/data/slab/unmapped page cache).
	for _, kp := range k.KernelOwnedPages() {
		if f, ok := vm.ResolveResident(vm.GPFNToHostVPN(kp.GPFN)); ok {
			a.addUser(f, PageUser{VM: vm, Kind: KindKernel, Category: string(kp.Class)})
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
				gpfn := uint64(pte.Frame)
				f, ok := vm.ResolveResident(vm.GPFNToHostVPN(gpfn))
				if !ok {
					continue // swapped out: not host physical memory
				}
				a.addUser(f, PageUser{VM: vm, Kind: KindProcess, Proc: p, Category: v.Category})
			}
		}
	}

	// The VM process's own overhead pages.
	start, end := vm.OverheadRegion()
	for vpn := start; vpn < end; vpn++ {
		if f, ok := vm.ResolveResident(vpn); ok {
			a.addUser(f, PageUser{VM: vm, Kind: KindVMOverhead, Category: "vm-overhead"})
		}
	}
}

func (a *Analysis) addUser(f mem.FrameID, u PageUser) {
	a.users[f] = append(a.users[f], u)
}

// chooseOwners applies the paper's rule: if any Java process maps the frame,
// the Java process with the smallest PID owns it (ties broken by VM id);
// otherwise the first mapper in deterministic walk order owns it.
func (a *Analysis) chooseOwners() {
	for f, us := range a.users {
		best := 0
		for i := 1; i < len(us); i++ {
			if ownerLess(us[i], us[best]) {
				best = i
			}
		}
		a.owner[f] = best
	}
}

// ownerLess orders candidate owners: Java processes first (smallest PID,
// then VM id), then everything else in walk order (stable because we only
// replace on strict improvement).
func ownerLess(x, y PageUser) bool {
	xj, yj := x.isJava(), y.isJava()
	if xj != yj {
		return xj
	}
	if !xj {
		return false // non-Java: keep first-walked
	}
	if x.Proc.PID != y.Proc.PID {
		return x.Proc.PID < y.Proc.PID
	}
	return x.VM.ID() < y.VM.ID()
}

// PageSize reports the analyzed page size.
func (a *Analysis) PageSize() int { return a.pageSize }

// SharedFrameCount reports how many frames have more than one mapper.
func (a *Analysis) SharedFrameCount() int {
	n := 0
	for _, us := range a.users {
		if len(us) > 1 {
			n++
		}
	}
	return n
}

// TotalGuestBytes reports all host physical memory attributed to guests.
func (a *Analysis) TotalGuestBytes() int64 {
	return int64(len(a.users)) * int64(a.pageSize)
}

// FrameSizeCounts attributes the analyzed frames by backing page size:
// hugeBacked frames are subpages of transparent huge pages (mapped by one
// 2 MiB entry), base frames are ordinary 4 KiB mappings.
func (a *Analysis) FrameSizeCounts() (hugeBacked, base int) {
	for f := range a.users {
		if a.phys.IsHugeFrame(f) {
			hugeBacked++
		} else {
			base++
		}
	}
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
	huge, base := a.FrameSizeCounts()
	blocks := make(map[mem.FrameID]struct{})
	for f := range a.users {
		if a.phys.IsHugeFrame(f) {
			blocks[f/mem.HugePages] = struct{}{}
		}
	}
	entries := len(blocks) + base
	if entries == 0 {
		return 0
	}
	totalBytes := int64(huge+base) * int64(a.pageSize)
	return TLBEntries * totalBytes / int64(entries)
}

// TotalSavingsBytes reports cluster-wide TPS savings: for each shared frame,
// every mapper beyond the owner would otherwise need its own copy.
func (a *Analysis) TotalSavingsBytes() int64 {
	var extra int64
	for _, us := range a.users {
		extra += int64(len(us) - 1)
	}
	return extra * int64(a.pageSize)
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
	for f, us := range a.users {
		oi := a.owner[f]
		o := us[oi]
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
		for i, u := range us {
			if i != oi {
				get(u.VM).SavingsBytes += ps
			}
		}
	}
	out := make([]VMBreakdown, 0, len(byVM))
	for _, b := range byVM {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VMID < out[j].VMID })
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
	type procKey struct {
		vmID int
		pid  int
	}
	byProc := map[procKey]*JavaBreakdown{}
	ps := int64(a.pageSize)
	for f, us := range a.users {
		oi := a.owner[f]
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
				b = &JavaBreakdown{
					VMName:   u.VM.Name(),
					VMID:     u.VM.ID(),
					ProcName: u.Proc.Name,
					PID:      u.Proc.PID,
					ByCat:    map[string]CategoryUsage{},
				}
				byProc[k] = b
			}
			cu := b.ByCat[u.Category]
			cu.MappedBytes += ps
			if i == oi {
				cu.OwnedBytes += ps
			} else {
				cu.SharedBytes += ps
			}
			b.ByCat[u.Category] = cu
		}
	}
	out := make([]JavaBreakdown, 0, len(byProc))
	for _, b := range byProc {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VMID != out[j].VMID {
			return out[i].VMID < out[j].VMID
		}
		return out[i].PID < out[j].PID
	})
	return out
}

// PSS computes the distribution-oriented usage (Linux smaps PSS) of one
// process in bytes: each mapped frame contributes pageSize divided by its
// total mapper count.
func (a *Analysis) PSS(proc *guestos.Process) float64 {
	var pss float64
	for _, us := range a.users {
		n := len(us)
		for _, u := range us {
			if u.Kind == KindProcess && u.Proc == proc {
				pss += float64(a.pageSize) / float64(n)
			}
		}
	}
	return pss
}

// OwnerOrientedBytes reports one process's owner-oriented usage in bytes.
func (a *Analysis) OwnerOrientedBytes(proc *guestos.Process) int64 {
	var t int64
	for f, us := range a.users {
		if u := us[a.owner[f]]; u.Kind == KindProcess && u.Proc == proc {
			t += int64(a.pageSize)
		}
	}
	return t
}

package guestos

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// VMAKind distinguishes anonymous memory from read-only file mappings.
type VMAKind uint8

const (
	// VMAAnon is demand-zero anonymous memory (heap, arenas, stacks).
	VMAAnon VMAKind = iota
	// VMAFile is a read-only file-backed mapping served by the page cache
	// (executables, shared libraries, the shared class cache).
	VMAFile
)

// VMA is a virtual memory area of a process. Category carries the paper's
// Table 4 label ("Code area", "Class metadata", …) so the analyzer can
// produce the detailed Java breakdowns; non-Java processes use free-form
// labels.
type VMA struct {
	Start, End mem.VPN // [Start, End) in guest-virtual pages
	Kind       VMAKind
	File       *File
	FileOffPgs int
	Category   string
	Label      string
}

// Pages reports the VMA length in pages.
func (v *VMA) Pages() int { return int(v.End - v.Start) }

// Contains reports whether vpn falls inside the area.
func (v *VMA) Contains(vpn mem.VPN) bool { return vpn >= v.Start && vpn < v.End }

// Process is a guest user process: an ordered set of VMAs plus a guest page
// table mapping guest-virtual pages to guest-physical pages.
type Process struct {
	kernel *Kernel
	PID    int
	Name   string
	// IsJava marks JVM processes; the owner-oriented analyzer prefers them
	// as page owners, as the paper's methodology does.
	IsJava bool

	vmas []*VMA
	pt   *mem.PageTable

	// mmapCursor is where the next VMA is placed; its initial value is
	// ASLR-randomized per process so absolute addresses (and therefore any
	// pointers embedded in page contents) differ across processes and VMs.
	mmapCursor mem.VPN

	seed mem.Seed
}

// Spawn creates a process. PIDs increase monotonically within a guest from a
// boot-randomized origin, so PIDs bear no relationship across VMs (the
// paper notes the same of its testbed).
func (k *Kernel) Spawn(name string, isJava bool) *Process {
	if k.nextPID == 1 {
		k.nextPID = 100 + int(uint64(mem.Mix(k.bootSeed))%400)
	}
	p := &Process{
		kernel:     k,
		PID:        k.nextPID,
		Name:       name,
		IsJava:     isJava,
		pt:         mem.NewPageTable(),
		seed:       mem.Combine(k.bootSeed, mem.HashString(name), mem.Seed(k.nextPID)),
		mmapCursor: mem.VPN(0x10000 + uint64(mem.Mix(mem.Combine(k.bootSeed, mem.Seed(k.nextPID))))%4096),
	}
	k.nextPID += 1 + int(uint64(mem.Mix(p.seed))%7)
	k.procs = append(k.procs, p)
	return p
}

// Exit unmaps everything and removes the process from the kernel's table.
func (p *Process) Exit() {
	for _, v := range append([]*VMA(nil), p.vmas...) {
		p.Unmap(v)
	}
	for i, q := range p.kernel.procs {
		if q == p {
			p.kernel.procs = append(p.kernel.procs[:i], p.kernel.procs[i+1:]...)
			break
		}
	}
}

// Kernel returns the owning guest kernel.
func (p *Process) Kernel() *Kernel { return p.kernel }

// Seed returns the process's layout-randomization seed.
func (p *Process) Seed() mem.Seed { return p.seed }

// VMAs lists the process's areas in mapping order.
func (p *Process) VMAs() []*VMA { return p.vmas }

// PageTable exposes the guest page table for the analyzer.
func (p *Process) PageTable() *mem.PageTable { return p.pt }

// MapAnon creates an anonymous demand-zero area.
func (p *Process) MapAnon(pages int, category, label string) *VMA {
	if pages <= 0 {
		panic(fmt.Sprintf("guestos: MapAnon(%d)", pages))
	}
	v := &VMA{
		Start:    p.mmapCursor,
		End:      p.mmapCursor + mem.VPN(pages),
		Kind:     VMAAnon,
		Category: category,
		Label:    label,
	}
	p.mmapCursor = v.End + 16 // guard gap
	p.vmas = append(p.vmas, v)
	return v
}

// MapFile maps pages of a file read-only starting at file page offPgs. A
// pages value of 0 maps the whole remainder of the file.
func (p *Process) MapFile(f *File, offPgs, pages int, category, label string) *VMA {
	filePages := f.Pages(p.kernel.pageSize)
	if pages == 0 {
		pages = filePages - offPgs
	}
	if offPgs < 0 || pages <= 0 || offPgs+pages > filePages {
		panic(fmt.Sprintf("guestos: MapFile(%q, off=%d, pages=%d) outside %d file pages", f.Path, offPgs, pages, filePages))
	}
	v := &VMA{
		Start:      p.mmapCursor,
		End:        p.mmapCursor + mem.VPN(pages),
		Kind:       VMAFile,
		File:       f,
		FileOffPgs: offPgs,
		Category:   category,
		Label:      label,
	}
	p.mmapCursor = v.End + 16
	p.vmas = append(p.vmas, v)
	return v
}

// Unmap removes an area, releasing anonymous pages and unpinning file pages.
func (p *Process) Unmap(v *VMA) {
	for vpn := v.Start; vpn < v.End; vpn++ {
		pte, ok := p.pt.Delete(vpn)
		if !ok {
			continue
		}
		gpfn := uint64(pte.Frame)
		switch v.Kind {
		case VMAAnon:
			p.kernel.freePFN(gpfn)
		case VMAFile:
			p.kernel.mapCount[gpfn]--
		}
	}
	for i, q := range p.vmas {
		if q == v {
			p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
			return
		}
	}
}

// findVMA locates the area containing vpn.
func (p *Process) findVMA(vpn mem.VPN) *VMA {
	for _, v := range p.vmas {
		if v.Contains(vpn) {
			return v
		}
	}
	return nil
}

// ensure resolves a guest-virtual page to a guest-physical page, faulting it
// in on first touch. It leaves the host page alone: the caller's access
// propagates to the host layer (demand paging, swap-in, COW breaking all
// live there) through the one VMProcess call it makes next.
func (p *Process) ensure(vpn mem.VPN, write bool) uint64 {
	if pte, ok := p.pt.Lookup(vpn); ok {
		if write && !pte.Writable {
			panic(fmt.Sprintf("guestos: write to read-only page %#x in %s", vpn, p.Name))
		}
		return uint64(pte.Frame)
	}
	v := p.findVMA(vpn)
	if v == nil {
		panic(fmt.Sprintf("guestos: segfault at page %#x in %s (pid %d)", vpn, p.Name, p.PID))
	}
	switch v.Kind {
	case VMAAnon:
		gpfn := p.kernel.allocPFN(ownerProcess)
		p.kernel.mapCount[gpfn] = 1
		p.pt.Set(vpn, mem.PTE{Frame: mem.FrameID(gpfn), Writable: true})
		p.kernel.stats.ProcAnonFaults++
		return gpfn
	case VMAFile:
		if write {
			panic(fmt.Sprintf("guestos: write fault on read-only file mapping %q", v.File.Path))
		}
		idx := v.FileOffPgs + int(vpn-v.Start)
		gpfn := p.kernel.pageCacheGet(v.File, idx)
		p.kernel.mapCount[gpfn]++
		p.pt.Set(vpn, mem.PTE{Frame: mem.FrameID(gpfn), Writable: false})
		p.kernel.stats.ProcFileFaults++
		return gpfn
	default:
		panic("guestos: unknown VMA kind")
	}
}

// Touch simulates an access to a guest-virtual page.
func (p *Process) Touch(vpn mem.VPN, write bool) {
	p.kernel.vm.TouchGuestPage(p.ensure(vpn, write), write)
}

// WritePage writes bytes into a page at byte offset off.
func (p *Process) WritePage(vpn mem.VPN, off int, data []byte) {
	gpfn := p.ensure(vpn, true)
	p.kernel.vm.WriteGuestPage(gpfn, off, data)
}

// FillPage overwrites a whole anonymous page with seed-derived content.
func (p *Process) FillPage(vpn mem.VPN, seed mem.Seed) {
	gpfn := p.ensure(vpn, true)
	p.kernel.vm.FillGuestPage(gpfn, seed)
}

// ZeroPage clears a page to zeros (GC sweep, arena recycling).
func (p *Process) ZeroPage(vpn mem.VPN) {
	gpfn := p.ensure(vpn, true)
	p.kernel.vm.ZeroGuestPage(gpfn)
}

// ReadPage returns a read-only view of the page's current bytes.
func (p *Process) ReadPage(vpn mem.VPN) []byte {
	gpfn := p.ensure(vpn, false)
	return p.kernel.vm.ReadGuestPage(gpfn)
}

// ResidentPages counts pages currently mapped in the process.
func (p *Process) ResidentPages() int { return p.pt.Len() }

// TouchAll faults in an entire VMA (readahead / eager population).
func (p *Process) TouchAll(v *VMA, write bool) {
	for vpn := v.Start; vpn < v.End; vpn++ {
		p.Touch(vpn, write)
	}
}

// SortedVMAs returns the areas ordered by start address.
func (p *Process) SortedVMAs() []*VMA {
	out := append([]*VMA(nil), p.vmas...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

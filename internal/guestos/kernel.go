// Package guestos models the guest operating system layer: a kernel with
// text/data/slab memory and a page cache, a file system backed by the VM's
// disk image, and user processes with virtual memory areas and guest page
// tables. A kernel boots on a hypervisor.VMProcess, whose guest physical
// memory it manages. It provides the first of the paper's three
// translation layers (guest virtual → guest physical); the hypervisor
// provides the rest.
package guestos

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// KernelConfig sizes the guest kernel's own memory at boot.
type KernelConfig struct {
	// Version identifies the kernel build; kernels with the same version
	// have byte-identical text pages across VMs (same base image).
	Version string
	// TextBytes is the kernel code + read-only data (identical across VMs).
	TextBytes int64
	// DataBytes is boot-time kernel data (per-VM content).
	DataBytes int64
	// SlabBytes is dynamic kernel allocations that grow at boot
	// (per-VM content).
	SlabBytes int64
}

// pageOwner tags who holds a guest physical page, for the analyzer.
type pageOwner uint8

const (
	ownerNone pageOwner = iota
	ownerKernelText
	ownerKernelData
	ownerKernelSlab
	ownerPageCache
	ownerProcess
)

// cacheKey identifies one page of one file in the page cache.
type cacheKey struct {
	path string
	idx  int
}

// Kernel is the guest operating system instance of one VM.
type Kernel struct {
	vm       *hypervisor.VMProcess
	fs       *FS
	pageSize int

	freePFNs []uint64
	owners   []pageOwner // indexed by gpfn
	// mapCount tracks, per gpfn, how many process PTEs map the page; the
	// analyzer uses it to decide whether a page-cache page is process
	// memory (mapped) or kernel buffer/cache (unmapped).
	mapCount []int32

	pageCache map[cacheKey]uint64
	cacheFIFO []cacheKey // reclaim order

	procs   []*Process
	nextPID int

	bootSeed mem.Seed

	stats KernelStats
}

// KernelStats counts guest-level memory events.
type KernelStats struct {
	PageCacheFills uint64
	PageCacheDrops uint64
	PageCacheDirty uint64
	OOMReclaims    uint64
	ProcAnonFaults uint64
	ProcFileFaults uint64
}

// Boot initializes a guest OS on the VM, populating kernel text, data and
// slab memory and creating the file system.
func Boot(vm *hypervisor.VMProcess, cfg KernelConfig) *Kernel {
	k := &Kernel{
		vm:        vm,
		fs:        NewFS(),
		pageSize:  vm.PageSize(),
		owners:    make([]pageOwner, vm.GuestPages()),
		mapCount:  make([]int32, vm.GuestPages()),
		pageCache: make(map[cacheKey]uint64),
		nextPID:   1,
		bootSeed:  mem.Combine(mem.HashString("guest-boot"), vm.Seed()),
	}
	// Free list: hand out low PFNs first so the kernel occupies the same
	// guest physical range in every VM (no KASLR, as on the paper's RHEL 5).
	k.freePFNs = make([]uint64, 0, vm.GuestPages())
	for pfn := vm.GuestPages() - 1; pfn >= 0; pfn-- {
		k.freePFNs = append(k.freePFNs, uint64(pfn))
	}

	textSeed := mem.Combine(mem.HashString("kernel-text"), mem.HashString(cfg.Version))
	for i := 0; i < int(cfg.TextBytes/int64(k.pageSize)); i++ {
		pfn := k.allocPFN(ownerKernelText)
		vm.FillGuestPage(pfn, mem.Combine(textSeed, mem.Seed(i)))
	}
	for i := 0; i < int(cfg.DataBytes/int64(k.pageSize)); i++ {
		pfn := k.allocPFN(ownerKernelData)
		vm.FillGuestPage(pfn, mem.Combine(k.bootSeed, mem.HashString("kdata"), mem.Seed(i)))
	}
	for i := 0; i < int(cfg.SlabBytes/int64(k.pageSize)); i++ {
		pfn := k.allocPFN(ownerKernelSlab)
		vm.FillGuestPage(pfn, mem.Combine(k.bootSeed, mem.HashString("slab"), mem.Seed(i)))
	}
	return k
}

// VM returns the VM process the kernel boots on: its guest physical memory
// is the process's memslot on a hypervisor.Host.
func (k *Kernel) VM() *hypervisor.VMProcess { return k.vm }

// FS returns the guest file system.
func (k *Kernel) FS() *FS { return k.fs }

// PageSize reports the page size in bytes.
func (k *Kernel) PageSize() int { return k.pageSize }

// Stats returns a snapshot of kernel counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Processes lists user processes in spawn order.
func (k *Kernel) Processes() []*Process { return k.procs }

// allocPFN takes a guest physical page, reclaiming page cache under
// pressure. Exhausting guest memory entirely panics: the scenarios size
// guests so that anonymous memory fits, as the paper's do.
func (k *Kernel) allocPFN(owner pageOwner) uint64 {
	if len(k.freePFNs) == 0 && !k.reclaimOne() {
		panic(fmt.Sprintf("guestos: VM %q out of guest memory", k.vm.Name()))
	}
	pfn := k.freePFNs[len(k.freePFNs)-1]
	k.freePFNs = k.freePFNs[:len(k.freePFNs)-1]
	k.owners[pfn] = owner
	return pfn
}

// freePFN returns a page to the free list and releases its host backing.
func (k *Kernel) freePFN(pfn uint64) {
	k.owners[pfn] = ownerNone
	k.mapCount[pfn] = 0
	k.vm.ReleaseGuestPage(pfn)
	k.freePFNs = append(k.freePFNs, pfn)
}

// reclaimOne drops one unmapped page-cache page (FIFO), reporting false when
// nothing is reclaimable. The scan is bounded to one full rotation of the
// FIFO: mapped pages rotate to the tail and stale keys fall out.
func (k *Kernel) reclaimOne() bool {
	for scanned, limit := 0, len(k.cacheFIFO); scanned < limit && len(k.cacheFIFO) > 0; scanned++ {
		key := k.cacheFIFO[0]
		k.cacheFIFO = k.cacheFIFO[1:]
		pfn, ok := k.pageCache[key]
		if !ok {
			continue // stale: already dropped
		}
		if k.mapCount[pfn] > 0 {
			k.cacheFIFO = append(k.cacheFIFO, key)
			continue
		}
		delete(k.pageCache, key)
		k.freePFN(pfn)
		k.stats.OOMReclaims++
		k.stats.PageCacheDrops++
		return true
	}
	return false
}

// ReclaimPages drops up to n unmapped page-cache pages (balloon inflation
// asks the guest for memory and the guest shrinks its disk cache first),
// returning how many pages were freed.
func (k *Kernel) ReclaimPages(n int) int {
	freed := 0
	for freed < n && k.reclaimOne() {
		freed++
	}
	return freed
}

// pageCacheGet returns the guest page holding file content page idx, reading
// it "from disk" (filling from the file's deterministic content) on a miss.
func (k *Kernel) pageCacheGet(f *File, idx int) uint64 {
	key := cacheKey{path: f.Path, idx: idx}
	if pfn, ok := k.pageCache[key]; ok {
		return pfn
	}
	pfn := k.allocPFN(ownerPageCache)
	if seed, ok := f.PageSeed(idx, k.pageSize); ok {
		// Full generator pages install as a seed, not bytes: the backing
		// frame stays unmaterialized until something actually reads it, and
		// identical file pages across guests share one interned buffer.
		k.vm.FillGuestPage(pfn, seed)
	} else {
		buf := make([]byte, k.pageSize)
		f.FillPage(buf, idx)
		k.vm.WriteGuestPage(pfn, 0, buf)
	}
	k.pageCache[key] = pfn
	k.cacheFIFO = append(k.cacheFIFO, key)
	k.stats.PageCacheFills++
	return pfn
}

// AppendFile models a buffered log write: the file grows by n bytes and the
// affected page-cache pages are (re)written with writer-specific content.
// Application-server logs are the classic source of dirty, per-VM page
// cache that never shares across guests.
func (k *Kernel) AppendFile(path string, n int, seed mem.Seed) {
	f := k.fs.MustLookup(path)
	start := f.SizeBytes
	f.SizeBytes += int64(n)
	firstPage := int(start / int64(k.pageSize))
	lastPage := int((f.SizeBytes - 1) / int64(k.pageSize))
	for idx := firstPage; idx <= lastPage; idx++ {
		pfn := k.pageCacheGet(f, idx)
		// Overwrite with the writer's bytes; the generator content is stale
		// once the file has been appended to.
		k.vm.FillGuestPage(pfn, mem.Combine(seed, mem.HashString(path), mem.Seed(idx)))
		k.stats.PageCacheDirty++
	}
}

// ReadFileAll touches every page of a file through the page cache (what a
// sequential read or a classloader scan does), warming identical pages into
// guest memory.
func (k *Kernel) ReadFileAll(path string) {
	f := k.fs.MustLookup(path)
	for i := 0; i < f.Pages(k.pageSize); i++ {
		k.pageCacheGet(f, i)
	}
}

// DropCaches evicts every unmapped page-cache page (echo 3 >
// /proc/sys/vm/drop_caches).
func (k *Kernel) DropCaches() {
	for key, pfn := range clonePageCache(k.pageCache) {
		if k.mapCount[pfn] > 0 {
			continue
		}
		delete(k.pageCache, key)
		k.freePFN(pfn)
		k.stats.PageCacheDrops++
	}
}

func clonePageCache(m map[cacheKey]uint64) map[cacheKey]uint64 {
	out := make(map[cacheKey]uint64, len(m))
	for k2, v := range m {
		out[k2] = v
	}
	return out
}

// KernelPageCount reports the guest pages held by the kernel itself, split
// by class. Unmapped page-cache pages count as kernel (the paper's "guest
// kernel including buffers and caches").
type KernelPageCount struct {
	Text, Data, Slab      int
	PageCacheUnmapped     int
	PageCacheMappedShared int // cache pages currently mapped by processes
}

// CountKernelPages tallies kernel-owned guest pages.
func (k *Kernel) CountKernelPages() KernelPageCount {
	var c KernelPageCount
	for pfn, o := range k.owners {
		switch o {
		case ownerKernelText:
			c.Text++
		case ownerKernelData:
			c.Data++
		case ownerKernelSlab:
			c.Slab++
		case ownerPageCache:
			if k.mapCount[pfn] > 0 {
				c.PageCacheMappedShared++
			} else {
				c.PageCacheUnmapped++
			}
		}
	}
	return c
}

// UsedGuestPages reports all allocated guest pages (kernel + processes).
func (k *Kernel) UsedGuestPages() int {
	return k.vm.GuestPages() - len(k.freePFNs)
}

// KernelClass labels kernel-owned guest pages for the analyzer.
type KernelClass string

// Kernel page classes. Page-cache pages mapped into processes are NOT
// listed here: the paper's methodology attributes them to the mapping
// processes, and the analyzer discovers them through the process walks.
const (
	KernelText          KernelClass = "kernel-text"
	KernelData          KernelClass = "kernel-data"
	KernelSlab          KernelClass = "kernel-slab"
	KernelCacheUnmapped KernelClass = "page-cache"
)

// KernelPage is one kernel-owned guest page.
type KernelPage struct {
	GPFN  uint64
	Class KernelClass
}

// KernelOwnedPages lists guest pages attributed to the kernel itself:
// text, data, slab, and page-cache pages not currently mapped by any
// process ("buffers and caches" in the paper's Fig. 2 category).
func (k *Kernel) KernelOwnedPages() []KernelPage {
	var out []KernelPage
	for pfn, o := range k.owners {
		switch o {
		case ownerKernelText:
			out = append(out, KernelPage{uint64(pfn), KernelText})
		case ownerKernelData:
			out = append(out, KernelPage{uint64(pfn), KernelData})
		case ownerKernelSlab:
			out = append(out, KernelPage{uint64(pfn), KernelSlab})
		case ownerPageCache:
			if k.mapCount[pfn] == 0 {
				out = append(out, KernelPage{uint64(pfn), KernelCacheUnmapped})
			}
		}
	}
	return out
}

package jvm

import (
	"repro/internal/guestos"
	"repro/internal/mem"
)

// WorkArea models the "JVM work area" of Table IV: native allocations made
// by the JVM and the class libraries. Three populations matter for the
// paper's sharing analysis (§3.1 attributes ~9.2 % sharing in this area to
// them):
//
//   - malloc arena blocks with per-process content — unshareable;
//   - bulk-reserved internal tables that are resident but still zero —
//     shareable until used;
//   - NIO socket buffers, whose contents are the benchmark's wire data and
//     therefore identical across VMs running the same benchmark — the
//     paper notes about half the sharing in this area came from these, and
//     warns real-world workloads would not repeat it.
type WorkArea struct {
	proc   *guestos.Process
	malloc *arena

	bulk       []*guestos.VMA
	nio        *guestos.VMA
	nioOff     int64
	nioBytes   int64
	nioWrapped bool

	nativeCursor uint64
	rangeBuf     []touchRange // TouchNative's segment list, rebuilt in place

	pageSize int
	stats    WorkStats
}

// WorkStats counts native-memory activity.
type WorkStats struct {
	MallocBytes uint64
	MallocCalls uint64
	BulkPages   int
	NIOWrites   uint64
}

func newWorkArea(proc *guestos.Process, mallocSeg int64) *WorkArea {
	return &WorkArea{
		proc:     proc,
		malloc:   newArena(proc, CatJVMWork, "malloc-arena", mallocSeg),
		pageSize: proc.Kernel().PageSize(),
	}
}

// Stats returns a snapshot of counters.
func (w *WorkArea) Stats() WorkStats { return w.stats }

// Malloc performs one native allocation with per-process content (pointers,
// handles, parsed state — never identical across processes).
func (w *WorkArea) Malloc(size int) Addr {
	addr := w.malloc.alloc(size)
	w.malloc.fill(addr, size, mem.Combine(w.proc.Seed(), mem.Seed(addr)))
	w.stats.MallocBytes += uint64(size)
	w.stats.MallocCalls++
	return addr
}

// MallocStartup performs the runtime's startup native allocations in
// realistic chunk sizes until total bytes are handed out.
func (w *WorkArea) MallocStartup(total int64) {
	r := mem.Combine(w.proc.Seed(), mem.HashString("malloc-startup"))
	var done int64
	for done < total {
		r = mem.Mix(r)
		size := 2048 + int(uint64(r)%uint64(56<<10))
		w.Malloc(size)
		done += int64(size)
	}
}

// TouchNative keeps the malloc'd native state hot: each request reads and
// partially rewrites the runtime's internal tables (string interning,
// monitor tables, zip caches), cycling through every segment. The rewrite
// keeps the content per-process and volatile — unshareable, but resident.
func (w *WorkArea) TouchNative(step int, bytes int) {
	ranges := w.malloc.appendUsedRanges(w.rangeBuf[:0])
	w.rangeBuf = ranges
	if len(ranges) == 0 || bytes <= 0 {
		return
	}
	total := 0
	for _, r := range ranges {
		total += r.pages
	}
	if total == 0 {
		return
	}
	pages := (bytes + w.pageSize - 1) / w.pageSize
	for i := 0; i < pages; i++ {
		w.nativeCursor++
		idx := int(w.nativeCursor % uint64(total))
		for _, r := range ranges {
			if idx >= r.pages {
				idx -= r.pages
				continue
			}
			vpn := r.v.Start + mem.VPN(idx)
			if i == 0 {
				// One dirty page per touch burst.
				w.proc.FillPage(vpn, mem.Combine(w.proc.Seed(), mem.HashString("native-dirty"), mem.Seed(step)))
			} else {
				w.proc.Touch(vpn, false)
			}
			break
		}
	}
}

// BulkReserve maps and touches bytes of internal tables that are allocated
// eagerly but not yet filled: resident zero pages, shareable until used.
func (w *WorkArea) BulkReserve(bytes int64) {
	if bytes <= 0 {
		return
	}
	pages := int(bytes / int64(w.pageSize))
	if pages == 0 {
		pages = 1
	}
	v := w.proc.MapAnon(pages, CatJVMWork, "bulk-reserved")
	w.proc.TouchAll(v, true)
	w.bulk = append(w.bulk, v)
	w.stats.BulkPages += pages
}

// SetupNIO maps the page-aligned buffer pool of the NIO socket library.
// The usable size is rounded down to whole pages — the mapping and the
// write cursor must agree, or the last partial page would overrun the VMA.
func (w *WorkArea) SetupNIO(bytes int64) {
	if bytes <= 0 {
		return
	}
	pages := int(bytes / int64(w.pageSize))
	if pages < 1 {
		pages = 1
	}
	w.nio = w.proc.MapAnon(pages, CatJVMWork, "nio-buffers")
	w.nioBytes = int64(pages) * int64(w.pageSize)
}

// NIOTransfer fills the next buffer slot with wire data identified by
// (workload, step). Two VMs running the same benchmark at the same step
// transfer the same bytes, so their buffer pages converge; distinct
// workloads (or a perVMSalt, modelling real-world traffic) never converge.
//
// The pool fills linearly once; afterwards only a hot quarter is recycled
// (steady state reuses a few direct buffers), so the remainder holds the
// initialization-phase payloads and quiesces — the stable, benchmark-
// identical pages behind the paper's observation that NIO buffers were
// about half of the "JVM and JIT work" sharing.
func (w *WorkArea) NIOTransfer(workload string, step int, size int, perVMSalt mem.Seed) {
	if w.nio == nil {
		panic("jvm: NIOTransfer before SetupNIO")
	}
	if int64(size) > w.nioBytes {
		size = int(w.nioBytes)
	}
	limit := w.nioBytes
	if w.nioWrapped {
		limit = w.nioBytes / 4
		if int64(size) > limit {
			size = int(limit)
		}
	}
	if w.nioOff+int64(size) > limit {
		w.nioOff = 0
		w.nioWrapped = true
	}
	base := Addr(int64(w.nio.Start)*int64(w.pageSize) + w.nioOff)
	seed := mem.Combine(mem.HashString("nio-wire"), mem.HashString(workload), mem.Seed(step), perVMSalt)
	fillBytes(w.proc, w.pageSize, base, size, seed)
	w.nioOff += int64(size)
	w.stats.NIOWrites++
}

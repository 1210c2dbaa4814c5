package jvm

import (
	"fmt"
	"sync"

	"repro/internal/guestos"
	"repro/internal/mem"
)

// Addr is a guest-virtual byte address inside the JVM process.
type Addr int64

// arena is a segment-based bump allocator, the shape of J9's memory
// segments and glibc's malloc arenas: memory is requested from the OS in
// multi-page segments and carved out by bumping a cursor. Because many
// small allocations share a page, a page's final content depends on the
// exact allocation order — the layout nondeterminism at the heart of the
// paper's §3.2 analysis.
type arena struct {
	proc     *guestos.Process
	category string
	label    string
	segBytes int64
	pageSize int

	segs   []*guestos.VMA
	cur    *guestos.VMA
	curOff int64
	// reusable holds recycled segments (still mapped, contents stale) that
	// alloc consumes before mapping fresh ones.
	reusable []*guestos.VMA

	allocated  int64 // bytes handed out
	segCount   int
	allocCount int
}

const arenaAlign = 16

func newArena(proc *guestos.Process, category, label string, segBytes int64) *arena {
	if segBytes <= 0 {
		panic(fmt.Sprintf("jvm: arena segment %d", segBytes))
	}
	return &arena{
		proc:     proc,
		category: category,
		label:    label,
		segBytes: segBytes,
		pageSize: proc.Kernel().PageSize(),
	}
}

// alloc reserves size bytes and returns their starting address. Allocations
// larger than a segment get a dedicated mapping, as mmap-threshold malloc
// and J9 large segments do.
func (a *arena) alloc(size int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("jvm: arena alloc %d", size))
	}
	size = (size + arenaAlign - 1) &^ (arenaAlign - 1)
	a.allocCount++
	a.allocated += int64(size)
	if int64(size) > a.segBytes {
		pages := (size + a.pageSize - 1) / a.pageSize
		v := a.proc.MapAnon(pages, a.category, a.label+"-large")
		a.segs = append(a.segs, v)
		a.segCount++
		return Addr(int64(v.Start) * int64(a.pageSize))
	}
	if a.cur == nil || a.curOff+int64(size) > int64(a.cur.Pages())*int64(a.pageSize) {
		if n := len(a.reusable); n > 0 && int64(a.reusable[0].Pages())*int64(a.pageSize) >= int64(size) {
			a.cur = a.reusable[0]
			a.reusable = a.reusable[1:]
		} else {
			pages := int(a.segBytes) / a.pageSize
			a.cur = a.proc.MapAnon(pages, a.category, a.label)
			a.segs = append(a.segs, a.cur)
			a.segCount++
		}
		a.curOff = 0
	}
	addr := Addr(int64(a.cur.Start)*int64(a.pageSize) + a.curOff)
	a.curOff += int64(size)
	return addr
}

// touchRange is a segment together with its populated page count, for the
// hot-path read loops: touching beyond the populated prefix would fault in
// zero pages that were never allocated.
type touchRange struct {
	v     *guestos.VMA
	pages int
}

// appendUsedRanges appends every segment with its populated page count to
// dst: callers on the touch path pass a buffer they keep.
func (a *arena) appendUsedRanges(dst []touchRange) []touchRange {
	for _, v := range a.segs {
		pages := v.Pages()
		if v == a.cur {
			pages = int((a.curOff + int64(a.pageSize) - 1) / int64(a.pageSize))
		}
		if pages > 0 {
			dst = append(dst, touchRange{v: v, pages: pages})
		}
	}
	return dst
}

// fill writes size deterministic bytes derived from seed at addr.
func (a *arena) fill(addr Addr, size int, seed mem.Seed) {
	fillBytes(a.proc, a.pageSize, addr, size, seed)
}

// allocFill is the common alloc-then-initialize step.
func (a *arena) allocFill(size int, seed mem.Seed) Addr {
	addr := a.alloc(size)
	a.fill(addr, size, seed)
	return addr
}

// releaseAll unmaps every segment (JIT scratch teardown).
func (a *arena) releaseAll() {
	for _, v := range a.segs {
		a.proc.Unmap(v)
	}
	a.segs = nil
	a.reusable = nil
	a.cur = nil
	a.curOff = 0
}

// recycle makes every segment reusable without touching its contents:
// free() does not zero, so recycled work-area pages keep stale per-process
// bytes and stay resident — accounted but unshareable, as the paper finds
// for the JIT work area.
func (a *arena) recycle() {
	a.cur = nil
	a.curOff = 0
	a.reusable = append(a.reusable[:0], a.segs...)
}

// writeBytes performs a page-spanning write at a byte address.
func writeBytes(proc *guestos.Process, pageSize int, addr Addr, data []byte) {
	off := int64(addr)
	for len(data) > 0 {
		vpn := mem.VPN(off / int64(pageSize))
		po := int(off % int64(pageSize))
		n := pageSize - po
		if n > len(data) {
			n = len(data)
		}
		proc.WritePage(vpn, po, data[:n])
		off += int64(n)
		data = data[n:]
	}
}

// fillPool recycles fill buffers; content generation is the hottest path in
// the simulator and per-call allocation would dominate run time.
var fillPool = sync.Pool{New: func() interface{} { b := make([]byte, 64<<10); return &b }}

// fillBytes writes size seed-derived bytes at a byte address.
func fillBytes(proc *guestos.Process, pageSize int, addr Addr, size int, seed mem.Seed) {
	bp := fillPool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < size {
		buf = make([]byte, size)
		*bp = buf
	}
	buf = buf[:size]
	mem.Fill(buf, seed)
	writeBytes(proc, pageSize, addr, buf)
	fillPool.Put(bp)
}

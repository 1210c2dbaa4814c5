package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/jvm"
	"repro/internal/mem"
)

// Probes time batches of direct calls into one layer's exported functions,
// on the final state of the traced run's last cluster, which is discarded
// afterwards. They give a layer's cost per operation apart from how often the
// workload happens to call it.

const (
	probeBatches = 128
	probeOps     = 256
)

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// probe times batches × ops calls of op, which receives a running index, and
// reports nanoseconds per call: median and 90th percentile over the batches.
func probe(batches, ops int, op func(i int)) probeStat {
	ns := make([]float64, batches)
	i := 0
	for b := range ns {
		t0 := time.Now()
		for k := 0; k < ops; k++ {
			op(i)
			i++
		}
		ns[b] = float64(time.Since(t0)) / float64(ops)
	}
	return probeStat{P50: median(ns), P90: percentile(ns, 90), Batches: batches, PerOp: ops}
}

// runProbes runs every probe the cluster's final state supports; the rest
// are left out (their metrics read 0).
func runProbes(c *core.Cluster, seed uint64) map[string]probeStat {
	out := make(map[string]probeStat)
	vm := c.Host.VMs()[0]
	pt := vm.HostPageTable()

	// First, while the state is still exactly what the workload left: one
	// full pass of the scanner over every registered page.
	total := 0
	for _, v := range c.Host.VMs() {
		total += v.GuestPages()
	}
	pass := probe(5, 1, func(int) { c.Scanner.ScanChunk(total) })
	out["ksm.pass_ms"] = probeStat{P50: pass.P50 / 1e6, P90: pass.P90 / 1e6, Batches: pass.Batches, PerOp: 1}

	// Content operations on one 4 KiB page.
	page := make([]byte, mem.DefaultPageSize)
	mem.Fill(page, mem.Seed(seed))
	out["mem.checksum_bytes_ns"] = probe(probeBatches, probeOps, func(int) { sink += mem.ChecksumBytes(page) })
	out["mem.checksum_seed_ns"] = probe(probeBatches, probeOps, func(i int) { sink += mem.ChecksumSeed(mem.Seed(i), len(page)) })
	out["mem.fill_ns"] = probe(probeBatches, probeOps, func(i int) { mem.Fill(page, mem.Seed(i)) })
	pairs := comparePairs(seed)
	out["mem.compare_ns"] = probe(probeBatches, probeOps, func(i int) {
		p := pairs.frames[i%len(pairs.frames)]
		sink += uint64(pairs.pm.Compare(p[0], p[1]) + 1)
	})

	// Page-table walks over one VM's mappings: in scan order, and in a
	// seeded shuffle — the pair that keeps a last-leaf cache honest.
	vpns := pt.SortedVPNs()
	shuffled := append([]mem.VPN(nil), vpns...)
	rng := mem.Seed(seed)
	for i := len(shuffled) - 1; i > 0; i-- {
		rng = mem.Mix(rng)
		k := int(uint64(rng) % uint64(i+1))
		shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
	}
	lookup := func(list []mem.VPN) probeStat {
		return probe(probeBatches, probeOps, func(i int) {
			e, _ := pt.Lookup(list[i%len(list)])
			sink += uint64(e.Frame)
		})
	}
	out["mem.pt_lookup_seq_ns"] = lookup(vpns)
	out["mem.pt_lookup_rand_ns"] = lookup(shuffled)
	var huge []mem.VPN
	base, pages := vm.MemslotBase(), mem.VPN(vm.GuestPages())
	for v := base; v < base+pages; v++ {
		if e, ok := pt.Lookup(v); ok && e.Huge {
			huge = append(huge, v)
		}
	}
	if len(huge) > 0 {
		out["mem.pt_lookup_huge_ns"] = lookup(huge)
	}
	out["hypervisor.resolve_ns"] = probe(probeBatches, probeOps, func(i int) {
		f, _ := vm.ResolveResident(base + mem.VPN(i)%pages)
		sink += uint64(f)
	})

	// The guest fault path: touches that hit resident pages, and — where the
	// host is over-committed — touches of swapped-out pages, each a major
	// fault plus the eviction that makes room for it.
	var resident, swapped []uint64
	for g := uint64(0); g < uint64(pages); g++ {
		if e, ok := pt.Lookup(vm.GPFNToHostVPN(g)); ok {
			if e.Swapped {
				swapped = append(swapped, g)
			} else {
				resident = append(resident, g)
			}
		}
	}
	out["hypervisor.touch_hit_ns"] = probe(probeBatches, probeOps, func(i int) { vm.TouchGuestPage(resident[i%len(resident)], false) })
	if batches := len(swapped) / 8; batches > 0 {
		if batches > probeBatches {
			batches = probeBatches
		}
		out["hypervisor.swapin_ns"] = probe(batches, 8, func(i int) { vm.TouchGuestPage(swapped[i], false) })
	}

	// The guest OS on a Java process's heap: touches and 8-byte writes to
	// pages the process already maps.
	proc := c.Workers[0].JVM.Process()
	var heap []mem.VPN
	for _, a := range proc.VMAs() {
		if a.Category != jvm.CatHeap {
			continue
		}
		for v := a.Start; v < a.End; v++ {
			if _, ok := proc.PageTable().Lookup(v); ok {
				heap = append(heap, v)
			}
		}
	}
	word := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	out["guestos.touch_ns"] = probe(probeBatches, probeOps, func(i int) { proc.Touch(heap[i%len(heap)], false) })
	out["guestos.write_page_ns"] = probe(probeBatches, probeOps, func(i int) { proc.WritePage(heap[i%len(heap)], 64, word) })
	return out
}

// framePairs is a scratch pool holding the page pairs mem.compare_ns walks.
type framePairs struct {
	pm     *mem.PhysMem
	frames [][2]mem.FrameID
}

// comparePairs builds pairs the KSM trees meet: equal content held under
// different descriptors (so the bytes are compared, not the handles), and
// pages that share all but their last 8 bytes (a full-length memcmp).
func comparePairs(seed uint64) framePairs {
	const n = 16
	ps := mem.DefaultPageSize
	fp := framePairs{pm: mem.NewPhysMem(int64(4*n*ps), ps)}
	alloc := func() mem.FrameID {
		f, err := fp.pm.Alloc()
		must(err)
		return f
	}
	for i := 0; i < n; i++ {
		s := mem.Combine(mem.Seed(seed), mem.Seed(i))
		a, b := alloc(), alloc()
		fp.pm.FillFrame(a, s)
		fp.pm.FillFrame(b, s)
		if i%2 == 0 {
			// Rewrite b's first byte with itself: same bytes, now a literal.
			fp.pm.Write(b, 0, []byte{fp.pm.Bytes(b)[0]})
		} else {
			fp.pm.Write(b, ps-8, []byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, byte(i)})
		}
		fp.frames = append(fp.frames, [2]mem.FrameID{a, b})
	}
	return fp
}

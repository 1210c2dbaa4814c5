package ksm

import (
	"encoding/binary"
	"testing"

	"repro/internal/mem"
)

// Micro-benchmarks of the scanner's per-page structures, next to the code
// they measure. The end-to-end numbers live in bench/ (BENCHMARK.json); these
// say which structure moved.

// benchStableFrames is the stable-index size of the lookup benchmark: that of
// a scale-16 four-guest cluster.
const benchStableFrames = 50000

var benchSink mem.FrameID

// BenchmarkIndexLookup times the checksum table's probe and stable-chain
// lookup: the miss every unshared page pays on every pass, and the hit a merge
// starts from. "random" pages differ in their first bytes; "common-prefix"
// pages agree on all but their last eight, the content an index ordered by
// memcmp reads to the end at every step. Keyed by checksum, the two miss
// alike; a hit is verified by Equal, which ends at descriptor identity for
// "random" (probe and member share the seed's interned blob) and at one page
// memcmp for "common-prefix". A miss probes a slot that holds the sum's
// unstable entry, as a converged pass does, so the table does not grow.
func BenchmarkIndexLookup(b *testing.B) {
	const probes = 1024
	page := mem.FillBytes(pg, 42)
	contents := []struct {
		name string
		fill func(pm *mem.PhysMem, id mem.FrameID, n int)
	}{
		{"random", func(pm *mem.PhysMem, id mem.FrameID, n int) {
			pm.FillFrame(id, mem.Combine(mem.Seed(n)))
			pm.Materialize(id)
		}},
		{"common-prefix", func(pm *mem.PhysMem, id mem.FrameID, n int) {
			binary.BigEndian.PutUint64(page[pg-8:], uint64(mem.Mix(mem.Seed(n))))
			pm.Write(id, 0, page)
		}},
	}
	for _, kind := range []string{"miss", "hit"} {
		hit := kind == "hit"
		for _, content := range contents {
			b.Run(kind+"/"+content.name, func(b *testing.B) {
				pm := mem.NewPhysMem(int64(benchStableFrames+probes)*pg, pg)
				x := makeSumTable(minSlots)
				x.reserve(benchStableFrames + probes)
				frame := func(n int) mem.FrameID {
					id, err := pm.Alloc()
					if err != nil {
						b.Fatal(err)
					}
					content.fill(pm, id, n)
					return id
				}
				for n := 0; n < benchStableFrames; n++ {
					id := frame(n)
					x.insertStable(pm, x.claim(pm.Checksum(id)), id)
				}
				// A hit probe is a second frame holding a member's content.
				first := benchStableFrames
				if hit {
					first = 0
				}
				var probe [probes]mem.FrameID
				var sum [probes]uint64
				for i := range probe {
					probe[i] = frame(first + i*(benchStableFrames/probes))
					sum[i] = pm.Checksum(probe[i])
					if !hit {
						x.record(x.claim(sum[i]), pageKey{vpn: mem.VPN(i)})
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f, found := x.lookupStable(pm, x.claim(sum[i%probes]), probe[i%probes])
					if found != hit {
						b.Fatalf("probe %d: found = %v", i%probes, found)
					}
					benchSink = f
				}
			})
		}
	}
}

// convergedFixture is two guests of guestPages pages each — half duplicated
// across the guests, half private — scanned until nothing is left to merge.
// Every further pass does what a pass over a converged cluster does: skips
// the shared half, and walks each private page through the gate, a
// stable-index miss and a fresh unstable record.
func convergedFixture(tb testing.TB, guestPages int) (f *fixture, pass func()) {
	f = newFixture(tb, 4*guestPages, 2, guestPages, DefaultConfig())
	for vi, vm := range f.vms {
		for i := 0; i < guestPages; i++ {
			seed := mem.Seed(1000 + i)
			if i%2 == 1 {
				seed = mem.Combine(mem.Seed(vi), mem.Seed(i))
			}
			vm.FillGuestPage(uint64(i), seed)
		}
	}
	pass = func() { f.k.ScanChunk(2 * guestPages) }
	for i := 0; i < 4; i++ {
		pass()
	}
	// The last page of a pass is scanned after the pass ends, so one
	// private page is already on the next pass's index.
	if s := f.k.Stats(); s.PagesShared != guestPages/2 || s.FullScans != 4 || f.k.index.unstableN != 1 {
		tb.Fatalf("fixture not converged at a pass boundary: %+v, %d unstable", s, f.k.index.unstableN)
	}
	return f, pass
}

// TestConvergedPassAllocFree: a pass over a converged cluster refills the
// gate tables, the checksum table's stale slots and the rewound node store in
// place.
func TestConvergedPassAllocFree(t *testing.T) {
	f, pass := convergedFixture(t, 512)
	before := f.k.Stats()
	if avg := testing.AllocsPerRun(5, pass); avg != 0 {
		t.Fatalf("a converged pass allocates %.1f objects, want 0", avg)
	}
	after := f.k.Stats()
	if after.FullScans-before.FullScans != 6 || after.StableMerges != before.StableMerges ||
		after.UnstableMerges != before.UnstableMerges || after.ChecksumSkips != before.ChecksumSkips {
		t.Fatalf("the measured passes were not converged full passes:\nbefore %+v\nafter  %+v", before, after)
	}
}

// BenchmarkConvergedPass is scan_idle in miniature: one full pass per
// iteration over a converged two-guest fixture.
func BenchmarkConvergedPass(b *testing.B) {
	const guestPages = 8192
	_, pass := convergedFixture(b, guestPages)
	if avg := testing.AllocsPerRun(2, pass); avg != 0 {
		b.Fatalf("a converged pass allocates %.1f objects, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*guestPages), "ns/page")
}

package mem

import (
	"runtime"
	"strconv"
	"testing"
)

var benchSink uint64

func BenchmarkChecksumBytes(b *testing.B) {
	page := FillBytes(DefaultPageSize, 42)
	b.SetBytes(DefaultPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += ChecksumBytes(page)
	}
}

func BenchmarkChecksumSeed(b *testing.B) {
	b.SetBytes(DefaultPageSize)
	for i := 0; i < b.N; i++ {
		benchSink += ChecksumSeed(Seed(i), DefaultPageSize)
	}
}

// BenchmarkFill covers the sizes guests write: a JVM object header is a
// 16-byte fill, small objects 64 and 256 bytes, file and arena pages 4 KiB.
func BenchmarkFill(b *testing.B) {
	for _, n := range []int{16, 64, 256, DefaultPageSize} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Fill(buf, Seed(i))
			}
			benchSink += uint64(buf[0])
		})
	}
}

// rewriteChurn is the guest write path the simulator spends its time in: a
// page is refilled, read (interning the seeded content) and partly rewritten
// (copying it into a private blob), over and over on the same frames.
type rewriteChurn struct {
	pm     *PhysMem
	frames []FrameID
	round  int
}

func newRewriteChurn(tb testing.TB, frames int) *rewriteChurn {
	c := &rewriteChurn{pm: NewPhysMem(int64(frames)*DefaultPageSize, DefaultPageSize)}
	for i := 0; i < frames; i++ {
		id, err := c.pm.Alloc()
		if err != nil {
			tb.Fatal(err)
		}
		c.frames = append(c.frames, id)
	}
	return c
}

func (c *rewriteChurn) run() {
	c.round++
	for i, id := range c.frames {
		c.pm.FillFrame(id, Seed(c.round%4*len(c.frames)+i))
		benchSink += uint64(c.pm.Bytes(id)[0])
		c.pm.Write(id, 128, []byte{byte(c.round), 1, 2, 3})
	}
}

func BenchmarkRewriteChurn(b *testing.B) {
	c := newRewriteChurn(b, 64)
	c.run()
	b.ReportAllocs()
	b.SetBytes(int64(len(c.frames)) * DefaultPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.run()
	}
}

// TestRewriteChurnAllocFree: once warm, rewriting a fixed frame set takes
// every page buffer from the store's recycled list. Blob headers and table
// slots (about 140 bytes per page) are still allocated, so the bound is on
// bytes: a sixteenth of a page per rewritten page, where allocating the two
// buffers each rewrite needs would cost two pages.
func TestRewriteChurnAllocFree(t *testing.T) {
	c := newRewriteChurn(t, 64)
	for i := 0; i < 8; i++ { // every seed's checksum cached, maps grown
		c.run()
	}
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		c.run()
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(c.frames))
	if perPage >= DefaultPageSize/16 {
		t.Fatalf("%.0f bytes allocated per rewritten page: page buffers are not recycled", perPage)
	}
	if st := c.pm.ContentStats(); st.Blobs != len(c.frames) || st.BlobBytes != int64(len(c.frames))*DefaultPageSize {
		t.Fatalf("ContentStats %+v: want one live blob per frame, recycled buffers not counted", st)
	}
}

// seededPool returns a pool of n frames, frame i filled with seed base+i.
func seededPool(tb testing.TB, n int, base Seed) (*PhysMem, []FrameID) {
	pm := NewPhysMem(int64(n)*DefaultPageSize, DefaultPageSize)
	ids := make([]FrameID, n)
	for i := range ids {
		id, err := pm.Alloc()
		if err != nil {
			tb.Fatal(err)
		}
		pm.FillFrame(id, base+Seed(i))
		ids[i] = id
	}
	return pm, ids
}

// BenchmarkSeededRescan is the volatility gate over freshly written pages:
// the first checksum pass over 4 096 seeded frames computes every sum, the
// second finds them already known.
func BenchmarkSeededRescan(b *testing.B) {
	const frames = 4096
	pass := func(pm *PhysMem, ids []FrameID) {
		for _, id := range ids {
			benchSink += pm.Checksum(id)
		}
	}
	perFrame := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
	}
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pm, ids := seededPool(b, frames, Seed(i*frames))
			b.StartTimer()
			pass(pm, ids)
		}
		perFrame(b)
	})
	b.Run("second", func(b *testing.B) {
		pm, ids := seededPool(b, frames, 0)
		pass(pm, ids)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(pm, ids)
		}
		perFrame(b)
	})
}

// TestInternFreshSeedAllocs: with every seed's checksum known and page
// buffers recycled, interning a seed no live blob holds allocates the blob
// and nothing else — no table bucket, no seed index entry.
func TestInternFreshSeedAllocs(t *testing.T) {
	const frames, runs = 64, 20
	pm, ids := seededPool(t, frames, 0)
	next := Seed(0)
	for s := next; s < (runs+3)*frames; s++ {
		pm.seedSum(s)
	}
	round := func() {
		for _, id := range ids {
			pm.FillFrame(id, next)
			next++
			benchSink += uint64(pm.Bytes(id)[0])
		}
	}
	round() // every frame now holds an interned blob for the next round to free
	if allocs := testing.AllocsPerRun(runs, round); allocs > frames {
		t.Fatalf("%.0f allocations interning %d fresh seeds, want at most one blob each", allocs, frames)
	}
}

// Page-table benchmarks: one guest-sized table at a memslot-like base, the
// shape every translation layer of the simulator walks.
const (
	benchPTPages      = 17000
	benchPTBase   VPN = 1 << 24
	benchPTTables     = 16
)

func benchPageTable(base VPN) *PageTable {
	pt := NewPageTable()
	for i := VPN(0); i < benchPTPages; i++ {
		pt.Set(base+i, PTE{Frame: FrameID(i), Writable: true, LastUse: int64(i)})
	}
	return pt
}

func benchLookups(b *testing.B, pt *PageTable, vpns []VPN) {
	b.ResetTimer()
	for i, k := 0, 0; i < b.N; i++ {
		e, _ := pt.Lookup(vpns[k])
		benchSink += uint64(e.Frame)
		if k++; k == len(vpns) {
			k = 0
		}
	}
}

func BenchmarkPageTableLookupSeq(b *testing.B) {
	pt := benchPageTable(benchPTBase)
	benchLookups(b, pt, pt.SortedVPNs())
}

func BenchmarkPageTableLookupRand(b *testing.B) {
	pt := benchPageTable(benchPTBase)
	vpns := pt.SortedVPNs()
	rng := Seed(1)
	for i := len(vpns) - 1; i > 0; i-- {
		rng = Mix(rng)
		k := int(uint64(rng) % uint64(i+1))
		vpns[i], vpns[k] = vpns[k], vpns[i]
	}
	benchLookups(b, pt, vpns)
}

// BenchmarkPageTableLookupHuge looks up covered subpages of collapsed runs,
// every eighth run with a few subpages carved out of it.
func BenchmarkPageTableLookupHuge(b *testing.B) {
	pt := benchPageTable(benchPTBase)
	var vpns []VPN
	for run := VPN(0); (run+1)*HugePages <= benchPTPages; run++ {
		head := benchPTBase + run*HugePages
		pt.InstallHuge(head, PTE{Frame: FrameID(run * HugePages), Writable: true})
		if run%8 == 0 {
			pt.SplitHugeSubpages(head, []VPN{head + 5, head + 70, head + 300})
		}
		for off := VPN(0); off < HugePages; off++ {
			if e, _ := pt.Lookup(head + off); e.Huge {
				vpns = append(vpns, head+off)
			}
		}
	}
	benchLookups(b, pt, vpns)
}

// BenchmarkPageTableTouch is the ensureMapped pattern: look an entry up,
// stamp it, store it back.
func BenchmarkPageTableTouch(b *testing.B) {
	pt := benchPageTable(benchPTBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := benchPTBase + VPN(i%benchPTPages)
		e, _ := pt.Lookup(vpn)
		e.LastUse, e.Accessed = int64(i), true
		pt.Set(vpn, e)
	}
}

func BenchmarkPageTableSortedVPNs(b *testing.B) {
	pt := benchPageTable(benchPTBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += uint64(len(pt.SortedVPNs()))
	}
}

// BenchmarkPageTableLookupCold visits sixteen tables one after another in
// address order, which is what a KSM pass over a cluster does: together they
// outgrow the cache a single hot table fits in.
func BenchmarkPageTableLookupCold(b *testing.B) {
	var tables [benchPTTables]*PageTable
	for s := range tables {
		tables[s] = benchPageTable(VPN(s+1) * benchPTBase)
	}
	b.ResetTimer()
	for i, s, k := 0, 0, VPN(0); i < b.N; i++ {
		e, _ := tables[s].Lookup(VPN(s+1)*benchPTBase + k)
		benchSink += uint64(e.Frame)
		if k++; k == benchPTPages {
			k, s = 0, (s+1)%benchPTTables
		}
	}
}

// TestPageTableSteadyStateAllocFree: once a table's leaves exist, the guest
// fault path (Lookup, Set of an existing entry) and a full walk allocate
// nothing.
func TestPageTableSteadyStateAllocFree(t *testing.T) {
	pt := benchPageTable(benchPTBase)
	pt.InstallHuge(benchPTBase, PTE{Frame: 0, Writable: true})
	allocs := testing.AllocsPerRun(10, func() {
		for i := VPN(0); i < benchPTPages; i += 3 {
			e, _ := pt.Lookup(benchPTBase + i)
			if !e.Huge {
				e.Accessed = !e.Accessed
				pt.Set(benchPTBase+i, e)
			}
		}
		pt.Range(func(_ VPN, e PTE) bool {
			benchSink += uint64(e.Frame)
			return true
		})
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per steady-state pass, want 0", allocs)
	}
}

// Content-store benchmarks: the page-store refactor is judged on two
// axes — the wall-clock cost of a full KSM scan pass over a large cluster
// (checksums and comparisons should hit the per-content caches, not re-hash
// 4 KiB per frame per pass) and the simulator's own live heap for a built
// cluster (content descriptors and interned blobs should replace the
// per-frame byte arrays). BENCH_content.json records the before/after pair.
package tpsim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// benchScale keeps the root benchmarks' clusters fast.
const benchScale = 48

// buildLargeCluster is the 4-guest DayTrader scenario both content
// benchmarks share: the Table-1 shape at bench scale, one guest wider than
// the paper's trio so cross-VM sharing structure is non-trivial.
func buildLargeCluster() *core.Cluster {
	return core.BuildCluster(core.ClusterConfig{
		Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
		NumVMs: 4, SharedClasses: true, SteadyRounds: 10,
	})
}

// BenchmarkScanPassLargeCluster measures one full cold KSM pass over a
// fully populated but unmerged 4-guest cluster — the volatility-gate pass
// that checksums every resident page. This is the content-heavy phase:
// steady-state rescans were already cheap under the old per-frame checksum
// cache, but a cold pass hashes every page, so it is where once-per-content
// checksums (and the streamed seeded checksum that never touches page
// bytes) show up.
func BenchmarkScanPassLargeCluster(b *testing.B) {
	var c *core.Cluster
	var pages int
	build := func() {
		c = core.BuildCluster(core.ClusterConfig{
			Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
			NumVMs: 4, SharedClasses: true, SteadyRounds: 10,
			DisableKSM: true,
		})
		c.Run()
		pages = 0
		for _, vm := range c.Host.VMs() {
			pages += vm.GuestPages()
		}
	}
	build()
	const passes = 1
	b.SetBytes(passes * int64(pages) * int64(c.Host.PageSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Scanner.ScanChunk(passes * pages)
		b.StopTimer()
		build() // a scan merges pages; every iteration needs a cold cluster
		b.StartTimer()
	}
}

// BenchmarkClusterBuildHeapFootprint reports the simulator's live Go heap
// attributable to one built-and-run 4-guest cluster: heap in use after a GC
// with the cluster still reachable, minus the pre-build floor.
func BenchmarkClusterBuildHeapFootprint(b *testing.B) {
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		c := buildLargeCluster()
		c.Run()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc-before), "live-heap-bytes")
		runtime.KeepAlive(c)
	}
}

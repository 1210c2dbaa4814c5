// Sharded-scanner benchmark: the wall-clock cost of a steady-state KSM scan
// pass at shard counts 1, 2 and 4 over the same cluster. Merge outcomes are
// byte-identical at every shard count (internal/ksm's equivalence tests and
// internal/core's ksmshard tests pin that); the shard axis can buy scan-pass
// wall time only, and BENCH_ksmshard.json records what it buys.
//
// The scenario is the one an index ordered by memcmp meets worst — pages that
// share a long common prefix and differ near the tail (think zero-initialized
// heap pages with object headers, or guest page-cache pages of versioned
// files). While the stable index was an ordered tree every comparison here
// was a near-full-page memcmp and a shard's 1/Nth-size tree saved levels;
// keyed by checksum, a lookup miss reads no page bytes at any shard count,
// so what the numbers now show is the pipeline itself: classify and per-shard
// decide on a worker pool (real concurrency only on a multi-core host)
// against the fan-out's dispatch and fill-repayment overhead. The pool's
// correctness under real parallelism is covered by the -race CI run.
package tpsim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/simclock"
)

// shardBenchCluster builds two guests whose pages all share a 4088-byte
// common prefix: dup contents are duplicated across both guests (they merge
// during warm-up and become the stable index), uniq contents per guest stay
// private (every steady-state pass walks each of them through a
// stable-index lookup miss).
func shardBenchCluster(b *testing.B, shards, dup, uniq int) (*ksm.KSM, int) {
	b.Helper()
	const pageBytes = 4096
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{
		Name:     "bench",
		RAMBytes: int64(4*(dup+uniq)) * pageBytes,
	}, clock)
	cfg := ksm.DefaultConfig()
	cfg.Shards = shards
	k := ksm.New(host, cfg)
	tail := make([]byte, 8)
	pages := 0
	for v := 0; v < 2; v++ {
		vm := host.NewVM(hypervisor.VMConfig{
			Name:          "vm",
			GuestMemBytes: int64(dup+uniq) * pageBytes,
			Seed:          mem.Seed(v + 1),
		})
		for p := 0; p < dup+uniq; p++ {
			vm.FillGuestPage(uint64(p), mem.Seed(42)) // the shared prefix
			id := uint64(p)
			if p >= dup {
				id = uint64(1+v)<<32 | uint64(p) // per-guest unique tail
			}
			binary.BigEndian.PutUint64(tail, id)
			vm.WriteGuestPage(uint64(p), pageBytes-len(tail), tail)
		}
		pages += dup + uniq
	}
	k.RegisterAll()
	// Warm up: sighting pass, merge pass, one steady pass (all content
	// materialized, every checksum cached, stable index fully grown).
	for i := 0; i < 3; i++ {
		k.ScanChunk(pages)
	}
	if s := k.Stats(); s.PagesShared != dup {
		b.Fatalf("stable index holds %d pages after warm-up, want %d", s.PagesShared, dup)
	}
	return k, pages
}

// BenchmarkShardedScanPass times one full steady-state scan pass per
// iteration: 2×dup already-merged pages short-circuit, 2×uniq private pages
// each pay a volatility-gate check plus a stable-index lookup miss. ns/op is
// the scan-pass wall time BENCH_ksmshard.json tracks down the shard axis.
func BenchmarkShardedScanPass(b *testing.B) {
	const (
		dup  = 4096
		uniq = 8192
	)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			k, pages := shardBenchCluster(b, shards, dup, uniq)
			b.SetBytes(int64(pages) * 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.ScanChunk(pages)
			}
			b.ReportMetric(float64(pages), "pages/pass")
		})
	}
}

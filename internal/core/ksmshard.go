package core

import (
	"fmt"

	"repro/internal/workload"
)

// KSMShardRow is one cell of the ksmshard sweep: one workload scenario run
// at one scanner shard count. Every outcome column is byte-identical across
// the shard axis — that invariance is the point of the sweep (and what its
// test asserts); sharding buys scan-pass wall time, which the
// BenchmarkShardedScanPass harness measures (BENCH_ksmshard.json), never
// different merges.
type KSMShardRow struct {
	Workload string
	Guests   int
	Shards   int
	// SharingMB is KSM saved memory at the end of the run.
	SharingMB float64
	// Merges is total stable + unstable merges; PagesScanned and FullScans
	// are the scanner's cumulative effort.
	Merges       uint64
	PagesScanned uint64
	FullScans    uint64
	// ScanCPUPct is the scanner's simulated duty cycle (per-page scan cost ×
	// pages / wall), identical at every shard count by construction: the
	// cost model charges pages, not workers.
	ScanCPUPct float64
	// ShardPagesScanned is the per-shard routed-candidate split, proving the
	// checksum partition spreads work rather than collapsing onto one shard.
	ShardPagesScanned []uint64
}

// KSMShardFigure is the ksmshard experiment result.
type KSMShardFigure struct {
	ID    string
	Title string
	Rows  []KSMShardRow
}

// KSMShardSweep runs workload scenarios at shard counts 1, 2 and 4 and
// reports identical sharing outcomes with the per-shard work split. The
// shard count (Knobs.KSMShards) is the sweep's own axis; every other knob
// applies.
func KSMShardSweep(o Options) KSMShardFigure {
	fig := KSMShardFigure{
		ID:    "ksmshard",
		Title: "Sharded KSM scanning: identical outcomes per shard count (wall-time scaling in BENCH_ksmshard.json)",
	}
	scenarios := []struct {
		label  string
		spec   workload.Spec
		guests int
	}{
		{"daytrader", workload.DayTrader(), 4},
		{"tuscany", workload.Tuscany(), 3},
	}
	var cells []cell[KSMShardRow]
	for _, sc := range scenarios {
		for _, shards := range []int{1, 2, 4} {
			cfg := o.clusterConfig([]workload.Spec{sc.spec}, sc.guests, true)
			cfg.KSMShards = shards
			cells = append(cells, cell[KSMShardRow]{
				label: fmt.Sprintf("ksmshard %s x%d shards=%d", sc.label, sc.guests, shards),
				cfg:   cfg,
				measure: func(c *Cluster) KSMShardRow {
					c.Run()
					kst := c.Scanner.Stats()
					return KSMShardRow{
						Workload:          sc.label,
						Guests:            sc.guests,
						Shards:            shards,
						SharingMB:         mb(kst.SavedBytes, c.Cfg.Scale),
						Merges:            kst.StableMerges + kst.UnstableMerges,
						PagesScanned:      kst.PagesScanned,
						FullScans:         kst.FullScans,
						ScanCPUPct:        kst.CPUPercent(),
						ShardPagesScanned: c.Scanner.ShardPagesScanned(),
					}
				},
			})
		}
	}
	fig.Rows = runCells(o, cells)
	return fig
}

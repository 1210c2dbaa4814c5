package core

import "testing"

// TestKSMShardSweepQualitativeAndDeterministic reads the memoized ksmshard
// sweep (its byte-identity across -jobs widths is that row of
// TestRegistryDeterministicAcrossJobs): the rows must show the tentpole claim
// — every outcome column is identical down the shard axis (sharding buys wall
// time, never different merges) while the per-shard split proves the checksum
// partition actually spreads the work.
func TestKSMShardSweepQualitativeAndDeterministic(t *testing.T) {
	seq := figureOf[KSMShardFigure](t, "ksmshard")

	byWorkload := map[string][]KSMShardRow{}
	for _, r := range seq.Rows {
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for workload, rows := range byWorkload {
		if len(rows) != 3 {
			t.Fatalf("%s: want shard counts 1/2/4, got %d rows", workload, len(rows))
		}
		base := rows[0]
		if base.Shards != 1 {
			t.Fatalf("%s: first row is shards=%d, want the unsharded baseline", workload, base.Shards)
		}
		// A sweep that shares nothing would pass the equality checks vacuously.
		if base.SharingMB <= 0 || base.Merges == 0 || base.FullScans == 0 {
			t.Fatalf("%s: baseline did no work: %+v", workload, base)
		}
		routed := func(r KSMShardRow) uint64 {
			var sum uint64
			for _, c := range r.ShardPagesScanned {
				sum += c
			}
			return sum
		}
		for _, r := range rows {
			// Outcomes may never depend on the shard count.
			if r.SharingMB != base.SharingMB || r.Merges != base.Merges ||
				r.PagesScanned != base.PagesScanned || r.FullScans != base.FullScans ||
				r.ScanCPUPct != base.ScanCPUPct {
				t.Fatalf("%s: shards=%d outcome diverges from unsharded:\n  base %+v\n  got  %+v",
					workload, r.Shards, base, r)
			}
			if len(r.ShardPagesScanned) != r.Shards {
				t.Fatalf("%s: shards=%d reports %d per-shard counters",
					workload, r.Shards, len(r.ShardPagesScanned))
			}
			// The split re-partitions the same routed work, it never changes it.
			if routed(r) != routed(base) {
				t.Fatalf("%s: shards=%d routed %d candidates, unsharded routed %d",
					workload, r.Shards, routed(r), routed(base))
			}
			if r.Shards > 1 {
				busy := 0
				for _, c := range r.ShardPagesScanned {
					if c > 0 {
						busy++
					}
				}
				if busy < 2 {
					t.Fatalf("%s: shards=%d but only %d shard(s) saw work: %v",
						workload, r.Shards, busy, r.ShardPagesScanned)
				}
			}
		}
	}
}

// Dirty-log benchmarks: the incremental-rescan work is judged on the
// converged scan rate — how many pages KSM examines per one-second interval
// once a cluster has merged, under a given guest churn rate. The linear
// scanner walks every registered page forever; dirty-ring incremental mode
// should pay only for churn. BENCH_dirtylog.json records the pair.
package tpsim

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// benchmarkConvergedRescan measures pages scanned and wall time per
// one-second interval on a converged 4-guest DayTrader cluster, rewriting
// churnPct percent of every guest's RAM each interval first.
func benchmarkConvergedRescan(b *testing.B, incremental bool, churnPct int) {
	c := core.BuildCluster(core.ClusterConfig{
		Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
		NumVMs: 4, SharedClasses: true, SteadyRounds: 10,
		Knobs: core.Knobs{IncrementalScan: incremental},
	})
	c.Run()
	var scanned uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for vi, vm := range c.Host.VMs() {
			dirty := vm.GuestPages() * churnPct / 100
			seed := mem.Combine(mem.HashString("bench-dirtylog"), mem.Seed(vi<<24|i))
			for p := 0; p < dirty; p++ {
				vm.FillGuestPage(uint64(p), mem.Combine(seed, mem.Seed(p)))
			}
		}
		before := c.Scanner.Stats().PagesScanned
		b.StartTimer()
		c.Clock.RunFor(simclock.Second)
		b.StopTimer()
		scanned += c.Scanner.Stats().PagesScanned - before
		b.StartTimer()
	}
	b.ReportMetric(float64(scanned)/float64(b.N), "pages-scanned/interval")
}

// BenchmarkConvergedRescan is the BENCH_dirtylog.json grid: scan mode x
// churn rate. The "full/churn0" vs "incremental/churn0" pair is the
// headline — an idle converged cluster should cost the incremental scanner
// almost nothing while the linear scanner keeps walking all of it.
func BenchmarkConvergedRescan(b *testing.B) {
	for _, mode := range []struct {
		label       string
		incremental bool
	}{{"full", false}, {"incremental", true}} {
		for _, churn := range []int{0, 2, 8} {
			mode, churn := mode, churn
			b.Run(fmt.Sprintf("%s/churn%d", mode.label, churn), func(b *testing.B) {
				benchmarkConvergedRescan(b, mode.incremental, churn)
			})
		}
	}
}

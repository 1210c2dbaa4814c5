// ShareJIT benchmarks: the code-archive work is judged on the code-area
// sharing ratio — what fraction of CatJITCode bytes KSM deduplicates on a
// multi-JVM cluster, measured after warm-up and again after steady state so
// the re-JIT decay is visible. BENCH_jitshare.json records the off/pic pair.
package tpsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jvm"
	"repro/internal/workload"
)

// codeSharingPct is the cluster-wide CatJITCode shared/mapped ratio in
// percent, via the standard read-only analysis walk.
func codeSharingPct(c *core.Cluster) float64 {
	var mapped, shared int64
	for _, jb := range c.Analyze().JavaBreakdowns() {
		cu := jb.ByCat[jvm.CatJITCode]
		mapped += cu.MappedBytes
		shared += cu.SharedBytes
	}
	if mapped == 0 {
		return 0
	}
	return 100 * float64(shared) / float64(mapped)
}

// benchmarkCodeSharing builds the Tuscany multi-JVM cluster (two Java
// processes per guest multiply the identical code mappings) with or without
// the shared code archive and reports the warm and end sharing ratios.
func benchmarkCodeSharing(b *testing.B, share bool) {
	var warm, end, saving float64
	for i := 0; i < b.N; i++ {
		c := core.BuildCluster(core.ClusterConfig{
			Scale: benchScale, Specs: []workload.Spec{workload.Tuscany()},
			NumVMs: 3, JVMsPerGuest: 2, SharedClasses: true, SteadyRounds: 15,
			Knobs: core.Knobs{JITShare: share},
		})
		c.RunWarmup()
		b.StopTimer()
		warm += codeSharingPct(c)
		b.StartTimer()
		c.RunSteady()
		b.StopTimer()
		end += codeSharingPct(c)
		saving += float64(c.Scanner.Stats().SavedBytes>>10) / 1024 * float64(c.Cfg.Scale)
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(warm/n, "ratio-warm-%")
	b.ReportMetric(end/n, "ratio-end-%")
	b.ReportMetric(saving/n, "ksm-saving-MB")
}

// BenchmarkCodeSharing is the BENCH_jitshare.json pair: "off" is the seed
// behaviour (the paper's finding that JIT output never shares), "pic" is
// the ShareJIT archive with position-independent bodies.
func BenchmarkCodeSharing(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchmarkCodeSharing(b, false) })
	b.Run("pic", func(b *testing.B) { benchmarkCodeSharing(b, true) })
}

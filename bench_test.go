// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the DESIGN.md ablations and micro-benchmarks of the
// substrates. Benchmarks run the experiments at a reduced scale so that
// `go test -bench=.` completes in minutes; cmd/tpsim runs them at the
// default scale. Each experiment benchmark reports its headline quantity as
// a custom metric so the regenerated "row" is visible in the bench output.
package tpsim

import (
	"testing"

	"repro/internal/classlib"
	"repro/internal/core"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/jvm"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memanalysis"
	"repro/internal/powervm"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// benchScale keeps full-cluster benchmarks fast.
const benchScale = 48

func benchOpts() core.Options { return core.Options{Scale: benchScale, Quick: true} }

// --- Tables -----------------------------------------------------------------

// BenchmarkTable1Configs regenerates Tables I-IV.
func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, t := range []interface{ String() string }{
			core.Table1(), core.Table2(), core.Table3(), core.Table4(),
		} {
			if len(t.String()) == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// --- Figures ----------------------------------------------------------------

// BenchmarkFig2 regenerates the baseline per-VM breakdown (Fig. 2) and
// reports the cluster total and TPS savings in paper-scale MB.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		memF, _ := core.Fig2(benchOpts())
		b.ReportMetric(memF.TotalMB, "totalMB")
		b.ReportMetric(memF.TotalSavingsMB, "savedMB")
	}
}

// BenchmarkFig3a reports the baseline class-metadata sharing fraction
// (paper: ≈0).
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, javaF := core.Fig2(benchOpts())
		b.ReportMetric(classMetaSharedPct(javaF), "classmeta-shared-%")
	}
}

// BenchmarkFig3b regenerates the mixed-workload baseline breakdown.
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.Fig3b(benchOpts())
		b.ReportMetric(classMetaSharedPct(f), "classmeta-shared-%")
	}
}

// BenchmarkFig3c regenerates the Tuscany baseline breakdown.
func BenchmarkFig3c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.Fig3c(benchOpts())
		b.ReportMetric(classMetaSharedPct(f), "classmeta-shared-%")
	}
}

// BenchmarkFig4 regenerates the preloaded per-VM breakdown (Fig. 4);
// paper: total drops from 3 648 to 3 314 MB.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		memF, _ := core.Fig4(benchOpts())
		b.ReportMetric(memF.TotalMB, "totalMB")
		b.ReportMetric(memF.TotalSavingsMB, "savedMB")
	}
}

// BenchmarkFig5a reports the preloaded class-metadata sharing fraction
// (paper: 89.6 % in the three non-primary JVMs).
func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, javaF := core.Fig4(benchOpts())
		b.ReportMetric(classMetaSharedPct(javaF), "classmeta-shared-%")
	}
}

// BenchmarkFig5b regenerates the mixed-workload preloaded breakdown.
func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.Fig5b(benchOpts())
		b.ReportMetric(classMetaSharedPct(f), "classmeta-shared-%")
	}
}

// BenchmarkFig5c regenerates the Tuscany preloaded breakdown.
func BenchmarkFig5c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.Fig5c(benchOpts())
		b.ReportMetric(classMetaSharedPct(f), "classmeta-shared-%")
	}
}

// BenchmarkFig6 regenerates the PowerVM comparison; paper: savings grow
// from 243.4 MB to 424.4 MB (Δ 181 MB).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.Fig6(benchOpts())
		b.ReportMetric(f.NoPreload.SavingMB(), "saved-noPreload-MB")
		b.ReportMetric(f.Preload.SavingMB(), "saved-preload-MB")
		b.ReportMetric(f.DeltaMB(), "deltaMB")
	}
}

// BenchmarkFig7 regenerates the DayTrader VM-count sweep; paper: cliff at
// 8 VMs (17.2 req/s default vs 148.1 with the cache).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.Fig7(benchOpts())
		last := f.Points[len(f.Points)-1]
		b.ReportMetric(last.Default.Mean, "default-last-req/s")
		b.ReportMetric(last.Preloaded.Mean, "ours-last-req/s")
	}
}

// BenchmarkFig8 regenerates the SPECjEnterprise sweep; paper: default drops
// to 15 EjOPS at 7 VMs (SLA violated), ours stays at 24.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.Fig8(benchOpts())
		last := f.Points[len(f.Points)-1]
		b.ReportMetric(last.Default.Mean, "default-last-EjOPS")
		b.ReportMetric(last.Preloaded.Mean, "ours-last-EjOPS")
	}
}

// classMetaSharedPct averages the class-metadata shared fraction across the
// non-primary (sharing) JVMs: the bars with nonzero sharing.
func classMetaSharedPct(f core.JavaFigure) float64 {
	var sum float64
	n := 0
	for _, bar := range f.Bars {
		cm := bar.Cat(jvm.CatClassMeta)
		if cm.MappedMB == 0 {
			continue
		}
		frac := cm.SharedMB / cm.MappedMB
		sum += frac
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// --- Ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationCacheLayout contrasts one copied cache file against each
// VM populating its own: the sharing collapses without the copied file,
// which is the paper's central insight.
func BenchmarkAblationCacheLayout(b *testing.B) {
	run := func(perVM bool) float64 {
		c := core.BuildCluster(core.ClusterConfig{
			Scale:            benchScale,
			Specs:            []workload.Spec{workload.DayTrader()},
			NumVMs:           3,
			SharedClasses:    true,
			PerVMCacheLayout: perVM,
			SteadyRounds:     15,
		})
		c.Run()
		a := c.Analyze()
		var shared, mapped int64
		for _, jb := range a.JavaBreakdowns() {
			cm := jb.ByCat[jvm.CatClassMeta]
			shared += cm.SharedBytes
			mapped += cm.MappedBytes
		}
		return 100 * float64(shared) / float64(mapped)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "copied-file-shared-%")
		b.ReportMetric(run(true), "per-vm-layout-shared-%")
	}
}

// BenchmarkAblationAccounting contrasts the paper's owner-oriented
// accounting with distribution-oriented PSS for the same Java processes.
func BenchmarkAblationAccounting(b *testing.B) {
	c := core.BuildCluster(core.ClusterConfig{
		Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
		NumVMs: 3, SharedClasses: true, SteadyRounds: 15,
	})
	c.Run()
	a := c.Analyze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var owner, pss float64
		for _, w := range c.Workers {
			owner += float64(a.OwnerOrientedBytes(w.JVM.Process()))
			pss += a.PSS(w.JVM.Process())
		}
		b.ReportMetric(owner*float64(benchScale)/(1<<20), "owner-MB")
		b.ReportMetric(pss*float64(benchScale)/(1<<20), "pss-MB")
	}
}

// BenchmarkAblationChecksumGate shows the volatility gate preventing wasted
// merges: without it, volatile pages merge and immediately COW-break.
func BenchmarkAblationChecksumGate(b *testing.B) {
	run := func(gate bool) (merges, breaks uint64) {
		clock := simclock.New()
		host := hypervisor.NewHost(hypervisor.Config{Name: "abl", RAMBytes: 4096 * 4096}, clock)
		cfg := ksm.DefaultConfig()
		cfg.ChecksumGate = gate
		k := ksm.New(host, cfg)
		var vms []*hypervisor.VMProcess
		for v := 0; v < 2; v++ {
			vms = append(vms, host.NewVM(hypervisor.VMConfig{
				Name: "vm", GuestMemBytes: 256 * 4096, Seed: mem.Seed(v + 1),
			}))
		}
		k.RegisterAll()
		for round := 0; round < 20; round++ {
			for _, vm := range vms {
				for p := uint64(0); p < 64; p++ {
					vm.FillGuestPage(p, mem.Seed(round)) // volatile, identical
				}
			}
			k.ScanChunk(512)
		}
		s := k.Stats()
		return s.StableMerges + s.UnstableMerges, s.COWBreaks
	}
	for i := 0; i < b.N; i++ {
		m1, br1 := run(true)
		m2, br2 := run(false)
		b.ReportMetric(float64(m1), "gated-merges")
		b.ReportMetric(float64(br1), "gated-breaks")
		b.ReportMetric(float64(m2), "ungated-merges")
		b.ReportMetric(float64(br2), "ungated-breaks")
	}
}

// BenchmarkAblationScanRate reproduces §2.C's CPU-cost trade-off: 10 000
// pages per wake-up costs ≈25 % of a CPU, 1 000 costs ≈2 %.
func BenchmarkAblationScanRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rate := range []int{1000, 10000} {
			clock := simclock.New()
			host := hypervisor.NewHost(hypervisor.Config{Name: "abl", RAMBytes: 1 << 26}, clock)
			host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 1 << 24, Seed: 1})
			cfg := ksm.DefaultConfig()
			cfg.PagesToScan = rate
			k := ksm.New(host, cfg)
			k.RegisterAll()
			k.Start()
			clock.RunFor(10 * simclock.Second)
			k.Stop()
			if rate == 1000 {
				b.ReportMetric(k.Stats().CPUPercent(), "cpu%-at-1000")
			} else {
				b.ReportMetric(k.Stats().CPUPercent(), "cpu%-at-10000")
			}
		}
	}
}

// BenchmarkAblationGCPolicy confirms the paper's §5.C observation that the
// technique's effectiveness is not limited to one GC policy: class-metadata
// sharing holds under both optthruput and gencon.
func BenchmarkAblationGCPolicy(b *testing.B) {
	run := func(spec workload.Spec) float64 {
		c := core.BuildCluster(core.ClusterConfig{
			Scale: benchScale, Specs: []workload.Spec{spec},
			NumVMs: 3, SharedClasses: true, SteadyRounds: 15,
		})
		c.Run()
		a := c.Analyze()
		var shared, mapped int64
		for _, jb := range a.JavaBreakdowns() {
			cm := jb.ByCat[jvm.CatClassMeta]
			shared += cm.SharedBytes
			mapped += cm.MappedBytes
		}
		return 100 * float64(shared) / float64(mapped)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(workload.DayTrader()), "optthruput-shared-%")
		b.ReportMetric(run(workload.SPECjEnterprise()), "gencon-shared-%")
	}
}

// BenchmarkAblationNIORealWorld de-identifies the benchmark wire traffic
// per VM, confirming the paper's warning that the NIO-buffer sharing would
// not repeat with real-world workloads.
func BenchmarkAblationNIORealWorld(b *testing.B) {
	run := func(salt bool) float64 {
		c := core.BuildCluster(core.ClusterConfig{
			Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
			NumVMs: 3, PerVMNIOSalt: salt, SteadyRounds: 15,
		})
		c.Run()
		a := c.Analyze()
		var shared int64
		for _, jb := range a.JavaBreakdowns() {
			shared += jb.ByCat[jvm.CatJVMWork].SharedBytes
		}
		return float64(shared*benchScale) / (1 << 20)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "benchmark-traffic-sharedMB")
		b.ReportMetric(run(true), "realworld-traffic-sharedMB")
	}
}

// --- Parallel runner ----------------------------------------------------------

// benchSweep is the Fig. 7-shaped workload for the runner benchmarks: a
// 4-point VM-count sweep with two configurations per point (8 independent
// cluster runs). The pair below measures the same sweep sequentially and on
// a 4-worker pool; on a ≥4-core machine the parallel run should finish in
// less than half the sequential wall-clock time.
func benchSweep(b *testing.B, jobs int) {
	o := benchOpts()
	o.Jobs = jobs
	for i := 0; i < b.N; i++ {
		f := core.Fig7(o)
		if len(f.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkSweepSequential runs the quick Fig. 7 sweep with -jobs 1
// (today's strictly sequential behaviour).
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel4 runs the identical sweep on a 4-worker pool. The
// output is byte-identical (see core.TestSweepDeterministicAcrossJobWidths);
// only the wall clock differs.
func BenchmarkSweepParallel4(b *testing.B) { benchSweep(b, 4) }

// --- Telemetry ----------------------------------------------------------------

// benchSamplingCluster runs the DayTrader pair scenario with or without the
// metrics registry attached; the Off/On pair below quantifies the sampling
// overhead (the subsystem's budget is "negligible when off, cheap when on").
func benchSamplingCluster(b *testing.B, enabled bool) {
	for i := 0; i < b.N; i++ {
		c := core.BuildCluster(core.ClusterConfig{
			Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
			NumVMs: 2, SteadyRounds: 15, EnableMetrics: enabled,
		})
		c.Run()
		if enabled && c.Metrics.Ticks() == 0 {
			b.Fatal("no samples taken")
		}
	}
}

// BenchmarkSamplingOverheadOff is the metrics-disabled baseline.
func BenchmarkSamplingOverheadOff(b *testing.B) { benchSamplingCluster(b, false) }

// BenchmarkSamplingOverheadOn runs the same cluster with the registry
// sampling every gauge at the default 500 ms cadence.
func BenchmarkSamplingOverheadOn(b *testing.B) { benchSamplingCluster(b, true) }

// --- Micro-benchmarks ---------------------------------------------------------

// BenchmarkKSMScanPage measures the scanner's per-page cost over a warm
// (checksum-cached) region.
func BenchmarkKSMScanPage(b *testing.B) {
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "m", RAMBytes: 1 << 28}, clock)
	vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 1 << 26, Seed: 1})
	for p := uint64(0); p < 1<<26/4096; p++ {
		vm.FillGuestPage(p, mem.Seed(p))
	}
	k := ksm.New(host, ksm.DefaultConfig())
	k.RegisterAll()
	k.ScanChunk(1 << 26 / 4096) // warm pass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScanChunk(1024)
	}
	b.SetBytes(1024 * 4096)
}

// BenchmarkHeapAllocGC measures object allocation with GC cycles included.
func BenchmarkHeapAllocGC(b *testing.B) {
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "m", RAMBytes: 1 << 28}, clock)
	vmp := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 1 << 27, Seed: 1})
	k := bootBenchGuest(vmp)
	j := jvm.Launch(k, "java", classlib.NewCorpus(jvm.RuntimeVersion, benchScale),
		jvm.Options{GCPolicy: jvm.OptThruput, HeapBytes: 16 << 20, Threads: 2}, jvm.DefaultSizes(benchScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Heap().Alloc(2048, mem.Seed(i), i%16 == 0)
	}
	b.SetBytes(2048)
}

// BenchmarkClassLoadPrivate measures class loading into private segments.
func BenchmarkClassLoadPrivate(b *testing.B) {
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, 1)
	classes := corpus.Group(classlib.GroupWASCore)
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "m", RAMBytes: 1 << 30}, clock)
	vmp := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 1 << 29, Seed: 1})
	k := bootBenchGuest(vmp)
	j := jvm.Launch(k, "java", corpus,
		jvm.Options{GCPolicy: jvm.OptThruput, HeapBytes: 8 << 20, Threads: 2}, jvm.DefaultSizes(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.LoadGroups(true, classlib.GroupWASCore)
		if i == 0 {
			b.SetBytes(int64(j.LoadStats().ROMBytesPrivate + j.LoadStats().RAMBytes))
		}
	}
	_ = classes
}

// BenchmarkCacheBuild measures the cold-run population of a full WAS cache.
func BenchmarkCacheBuild(b *testing.B) {
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, 16)
	spec := workload.DayTrader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := workload.BuildCache(corpus, spec, 16)
		data := img.FileBytes(corpus)
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkAnalyzer measures the full three-layer walk of the paper's
// measurement methodology on a 3-guest cluster.
func BenchmarkAnalyzer(b *testing.B) {
	c := core.BuildCluster(core.ClusterConfig{
		Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
		NumVMs: 3, SharedClasses: true, SteadyRounds: 10,
	})
	c.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := memanalysis.Analyze(c.Host, c.Kernels)
		if a.TotalGuestBytes() == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// bootBenchGuest boots a minimal guest kernel for micro-benchmarks.
func bootBenchGuest(vmp *hypervisor.VMProcess) *guestos.Kernel {
	return guestos.Boot(vmp, guestos.KernelConfig{Version: "bench", TextBytes: 1 << 20})
}

// --- Extension ----------------------------------------------------------------

// BenchmarkExtensionSharedAOT evaluates the extension beyond the paper's
// measured setup: storing AOT-compiled method code in the shared cache (as
// production J9 caches do). Hot methods execute shareable cache pages
// instead of private JIT output, shrinking the unshareable JIT-code area.
func BenchmarkExtensionSharedAOT(b *testing.B) {
	run := func(aot bool) (jitMB, javaSharedMB float64) {
		c := core.BuildCluster(core.ClusterConfig{
			Scale: benchScale, Specs: []workload.Spec{workload.DayTrader()},
			NumVMs: 3, SharedClasses: true, SharedAOT: aot, SteadyRounds: 15,
		})
		c.Run()
		a := c.Analyze()
		for _, jb := range a.JavaBreakdowns() {
			jitMB += float64(jb.ByCat[jvm.CatJITCode].MappedBytes*benchScale) / (1 << 20)
			for _, cu := range jb.ByCat {
				javaSharedMB += float64(cu.SharedBytes*benchScale) / (1 << 20)
			}
		}
		return jitMB / 3, javaSharedMB
	}
	for i := 0; i < b.N; i++ {
		j1, s1 := run(false)
		j2, s2 := run(true)
		b.ReportMetric(j1, "jitcodeMB-classesOnly")
		b.ReportMetric(j2, "jitcodeMB-withAOT")
		b.ReportMetric(s1, "javaSharedMB-classesOnly")
		b.ReportMetric(s2, "javaSharedMB-withAOT")
	}
}

// BenchmarkAblationPageSize64K contrasts 4 KiB base pages with POWER's
// 64 KiB pages on the Fig. 6 scenario shape. Coarser pages risk losing
// sharing (one divergent byte unshares 16× more memory), but when the
// shared content is file-backed and identically aligned — the shared class
// cache, base-image binaries, kernel text — the loss is minimal, which is
// consistent with AIX running 64 KiB pages on the paper's POWER guests
// without hurting its sharing numbers. Both measurements are reported.
func BenchmarkAblationPageSize64K(b *testing.B) {
	run := func(pageSize int) float64 {
		clock := simclock.New()
		machine := powervm.New(powervm.Config{Name: "abl", RAMBytes: 1 << 30, PageSize: pageSize}, clock)
		corpus := classlib.NewCorpus(jvm.RuntimeVersion, benchScale)
		spec := workload.Tuscany()
		img := workload.BuildCache(corpus, spec, benchScale)
		var instances []*workload.Instance
		for i := 0; i < 3; i++ {
			lp := machine.NewLPAR(powervm.LPARConfig{
				Name: "aix", GuestMemBytes: spec.GuestMemBytes / benchScale, Seed: mem.Seed(i + 1),
			})
			k := guestos.Boot(lp, guestos.KernelConfig{
				Version: "AIX", TextBytes: (24 << 20) / benchScale, DataBytes: (48 << 20) / benchScale,
			})
			k.FS().Install(&guestos.File{Path: "/cache", Data: img.FileBytes(corpus)})
			instances = append(instances, workload.Deploy(k, corpus, spec, workload.DeployConfig{
				Scale: benchScale, SharedClasses: true, CacheImage: img, CachePath: "/cache",
			}))
		}
		before := machine.PhysicalInUse()
		for r := 0; r < 5; r++ {
			for _, in := range instances {
				in.RunSteadyState(4)
			}
			machine.SharePass()
		}
		return float64((before-machine.PhysicalInUse())*benchScale) / (1 << 20)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(4096), "savedMB-4K-pages")
		b.ReportMetric(run(64<<10), "savedMB-64K-pages")
	}
}

package core

import (
	"os"
	"strings"
	"testing"

	"repro/internal/jvm"
	"repro/internal/memanalysis"
	"repro/internal/workload"
)

func TestClusterConfigDefaults(t *testing.T) {
	cfg := ClusterConfig{Specs: []workload.Spec{workload.DayTrader()}}.withDefaults()
	if cfg.Scale != DefaultScale || cfg.NumVMs != 1 || cfg.JVMsPerGuest != 1 || cfg.SteadyRounds == 0 ||
		cfg.IterationsPerRound == 0 || cfg.RoundDuration == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestTablesRender(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  string
		want []string
	}{
		{"t1", Table1().String(), []string{"BladeCenter LS21", "6 GB", "KVM", "PowerVM 2.1"}},
		{"t2", Table2().String(), []string{"1.00 GB", "3.5 GB", "1,000 pages", "AIX 6.1"}},
		{"t3", Table3().String(), []string{"12 client threads", "Injection rate of 15", "530 MB", "120 MB", "25 MB"}},
		{"t4", Table4().String(), []string{"Java heap", "JIT-compiled code", "ROMClass"}},
	} {
		for _, w := range tc.want {
			if !strings.Contains(tc.out, w) {
				t.Fatalf("%s: missing %q in:\n%s", tc.name, w, tc.out)
			}
		}
	}
}

func TestSolverMonotonicInFaults(t *testing.T) {
	mk := func(f float64) []VMPerf {
		vms := make([]VMPerf, 4)
		for i := range vms {
			vms[i] = VMPerf{FaultsPerReq: f, BaseRate: 19, ClientThreads: 12}
		}
		return vms
	}
	prev := 1e18
	for _, f := range []float64{0, 0.5, 2, 8, 32, 128} {
		vms := mk(f)
		solveThroughput(vms)
		agg := Aggregate(vms)
		if agg > prev+1e-9 {
			t.Fatalf("throughput not monotone: f=%v agg=%v prev=%v", f, agg, prev)
		}
		prev = agg
	}
	// Zero faults → unloaded rate.
	vms := mk(0)
	solveThroughput(vms)
	if a := Aggregate(vms); a < 75.9 || a > 76.1 {
		t.Fatalf("unloaded aggregate = %v, want 76", a)
	}
	// SLA flag fires under heavy faulting.
	vms = mk(64)
	solveThroughput(vms)
	if !AnySLAViolated(vms) {
		t.Fatal("SLA not violated under heavy faulting")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if out := RenderMemFigure(figureOf[MemFigure](t, "fig2")); !strings.Contains(out, "FIG2") || !strings.Contains(out, "Total physical memory") {
		t.Fatalf("mem render:\n%s", out)
	}
	if out := RenderJavaFigure(figureOf[JavaFigure](t, "fig3a")); !strings.Contains(out, "Class metadata") {
		t.Fatalf("java render:\n%s", out)
	}
	sf := SweepFigure{ID: "fig7", Title: "t", Unit: "req/s", Points: []SweepPoint{{NumVMs: 1, Default: Stat{1, 2, 3}, Preloaded: Stat{2, 3, 4}}}}
	if out := RenderSweepFigure(sf); !strings.Contains(out, "FIG7") {
		t.Fatalf("sweep render:\n%s", out)
	}
	pf := PowerFigure{ID: "fig6", Title: "t", NoPreload: PowerPair{100, 80}, Preload: PowerPair{100, 60}}
	if out := RenderPowerFigure(pf); !strings.Contains(out, "181.0") {
		t.Fatalf("power render:\n%s", out)
	}
}

func TestMultipleJVMsPerGuestShareCacheIntraGuest(t *testing.T) {
	// §4.B's original use of shared classes: several WAS processes in ONE
	// guest attach the same cache file and share its pages through the
	// guest page cache, without any hypervisor involvement. The
	// owner-oriented analyzer shows the second JVM's cache-backed class
	// metadata as shared even before KSM does anything across guests.
	spec := workload.Tuscany() // small heap: two fit in one guest
	c := BuildCluster(ClusterConfig{
		Scale:         testScale,
		Specs:         []workload.Spec{spec},
		NumVMs:        1,
		JVMsPerGuest:  2,
		SharedClasses: true,
		DisableKSM:    true, // isolate the intra-guest effect
		SteadyRounds:  5,
	})
	c.Run()
	a := c.Analyze()
	jbs := a.JavaBreakdowns()
	if len(jbs) != 2 {
		t.Fatalf("java processes = %d, want 2", len(jbs))
	}
	// Exactly one of the two pays for the cache pages; the other maps them
	// for free.
	shared0 := jbs[0].ByCat[jvm.CatClassMeta].SharedBytes
	shared1 := jbs[1].ByCat[jvm.CatClassMeta].SharedBytes
	lo, hi := shared0, shared1
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		t.Fatal("no intra-guest cache sharing between co-resident JVMs")
	}
	if lo >= hi {
		t.Fatal("both JVMs marked shared; owner rule broken")
	}
	// The shared portion is most of the cache-aware metadata.
	mapped := jbs[0].ByCat[jvm.CatClassMeta].MappedBytes
	if float64(hi) < 0.5*float64(mapped) {
		t.Fatalf("intra-guest sharing %d too small vs mapped %d", hi, mapped)
	}
}

// TestCacheFileSerializedOncePerCell holds the §4.B copy step to one file
// per cell: every guest of a shared-cache cell installs the one serialized
// image, while the per-VM-layout ablation, which builds each guest its own
// image, gives each guest its own file.
func TestCacheFileSerializedOncePerCell(t *testing.T) {
	for _, perVM := range []bool{false, true} {
		cfg := Options{Scale: testScale, Quick: true}.clusterConfig(dayTrader().specs, 4, true)
		cfg.PerVMCacheLayout = perVM
		c := BuildCluster(cfg)
		arrays := map[*byte]bool{}
		for _, k := range c.Kernels {
			f, ok := k.FS().Lookup(jvm.CachePath)
			if !ok || len(f.Data) == 0 {
				t.Fatalf("per-VM layout %v: a guest has no cache file", perVM)
			}
			arrays[&f.Data[0]] = true
		}
		if want := map[bool]int{false: 1, true: len(c.Kernels)}[perVM]; len(arrays) != want {
			t.Errorf("per-VM layout %v: %d guests hold %d cache file arrays, want %d", perVM, len(c.Kernels), len(arrays), want)
		}
	}
}

// TestFullScaleFig2 runs the Fig. 2 scenario at MemScale=1 — four real
// 1 GB guests with full-size page bytes. It needs several GB of RAM and
// minutes of CPU, so it only runs when explicitly requested:
//
//	TPSIM_FULLSCALE=1 go test ./internal/core -run TestFullScaleFig2 -timeout 60m
func TestFullScaleFig2(t *testing.T) {
	if os.Getenv("TPSIM_FULLSCALE") == "" {
		t.Skip("set TPSIM_FULLSCALE=1 to run the MemScale=1 experiment")
	}
	memF, javaF := Fig2(Options{Scale: 1, Quick: true})
	if memF.TotalMB < 3000 || memF.TotalMB > 4100 {
		t.Fatalf("full-scale total %.0f MB out of range", memF.TotalMB)
	}
	for _, b := range javaF.Bars {
		cm := b.Cat(jvm.CatClassMeta)
		if cm.SharedMB/cm.MappedMB > 0.15 {
			t.Fatalf("full-scale baseline class metadata shared: %+v", cm)
		}
	}
}

func TestCSVTables(t *testing.T) {
	mf := MemFigure{ID: "fig2", VMs: []VMRow{{Name: "VM 1", JavaMB: 700, KernelMB: 200, SavingsMB: 20}}, TotalMB: 920}
	csv := MemFigureTable(mf).CSV()
	if !strings.Contains(csv, "vm,java_mb") || !strings.Contains(csv, "VM 1,700.0") {
		t.Fatalf("mem csv:\n%s", csv)
	}
	jf := JavaFigure{ID: "fig3a", Bars: []JavaBar{{Label: "JVM1", PID: 7, Cats: []CatRow{{Name: "Java heap", MappedMB: 400, SharedMB: 2}}}}}
	csv = JavaFigureTable(jf).CSV()
	if !strings.Contains(csv, "JVM1,7,Java heap,400.0,2.0") {
		t.Fatalf("java csv:\n%s", csv)
	}
	sf := SweepFigure{ID: "fig7", Points: []SweepPoint{{NumVMs: 8, Default: Stat{7, 7.7, 8}, Preloaded: Stat{150, 152, 153}, DefaultSLAViolated: true}}}
	csv = SweepFigureTable(sf).CSV()
	if !strings.Contains(csv, "8,7.0,7.7,8.0,true,150.0,152.0,153.0,false") {
		t.Fatalf("sweep csv:\n%s", csv)
	}
	pf := PowerFigure{ID: "fig6", NoPreload: PowerPair{100, 80}, Preload: PowerPair{100, 60}}
	csv = PowerFigureTable(pf).CSV()
	if !strings.Contains(csv, "preloaded,100.0,60.0,40.0") {
		t.Fatalf("power csv:\n%s", csv)
	}
	// check prints one claim,status,measured row per claim; empty figures
	// fail every claim, none passes at 0 %.
	res, ok := evalClaims(&claimFigures{})
	rows := strings.Split(strings.TrimSuffix(res.CSV, "\n"), "\n")
	if ok || rows[0] != "claim,status,measured" || len(rows) != len(Claims())+1 ||
		!strings.HasPrefix(rows[1], "java-dominates,FAIL,") {
		t.Fatalf("check csv:\n%s", res.CSV)
	}
	for _, row := range rows[1:] {
		if !strings.Contains(row, ",FAIL,") {
			t.Errorf("claim passes on empty figures: %s", row)
		}
	}
}

// TestFig6Pinned holds Fig. 6's 64 KiB counterfactual cell at test scale to
// the totals a separate system-VM model with its own share pass produced:
// KSM on the KVM host must not change them. check prints only the cell's
// rounded saving; the registry golden holds the figure itself.
func TestFig6Pinned(t *testing.T) {
	got := powerRun(testOptions(1), true, 64<<10)
	if want := (PowerPair{4041, 3516}); got.v != want || got.err != nil {
		t.Errorf("preloaded on 64 KiB pages = %+v, %v; want %+v", got.v, got.err, want)
	}
}

func TestStatOfAndMeanScore(t *testing.T) {
	s := statOf([]float64{3, 1, 2})
	if s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Fatalf("stat = %+v", s)
	}
	if z := statOf(nil); z != (Stat{}) {
		t.Fatalf("empty stat = %+v", z)
	}
	vms := []VMPerf{{Throughput: 10}, {Throughput: 20}}
	if MeanScore(vms) != 15 {
		t.Fatal("MeanScore wrong")
	}
	if MeanScore(nil) != 0 {
		t.Fatal("MeanScore nil")
	}
	if SeedFromUint64(7) != 7 {
		t.Fatal("SeedFromUint64")
	}
}

func TestSweepQuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	f7 := figureOf[SweepFigure](t, "fig7")
	if len(f7.Points) == 0 || f7.Unit != "req/s" {
		t.Fatalf("fig7 = %+v", f7)
	}
	for i := 1; i < len(f7.Points); i++ {
		if f7.Points[i].NumVMs <= f7.Points[i-1].NumVMs {
			t.Fatal("points not sorted")
		}
	}
	// At small VM counts both configurations run at the unloaded rate.
	first := f7.Points[0]
	want := float64(first.NumVMs) * 19.0
	if first.Default.Mean < want*0.9 || first.Preloaded.Mean < want*0.9 {
		t.Fatalf("unloaded point degraded: %+v", first)
	}
}

// BenchmarkAnalyzer measures the full three-layer walk of the paper's
// measurement methodology on a 3-guest cluster.
func BenchmarkAnalyzer(b *testing.B) {
	c := BuildCluster(ClusterConfig{
		Scale: testScale, Specs: []workload.Spec{workload.DayTrader()},
		NumVMs: 3, SharedClasses: true, SteadyRounds: 10,
	})
	c.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := memanalysis.Analyze(c.Host, c.Kernels); a.TotalGuestBytes() == 0 {
			b.Fatal("empty analysis")
		}
	}
}

package core

import (
	"os"

	"strings"
	"testing"

	"repro/internal/jvm"
	"repro/internal/workload"
)

func TestClusterConfigDefaults(t *testing.T) {
	cfg := ClusterConfig{Specs: []workload.Spec{workload.DayTrader()}}.withDefaults()
	if cfg.Scale != DefaultScale || cfg.NumVMs != 1 || cfg.WarmupPasses == 0 || cfg.SteadyRounds == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.HostRAMBytes != HostRAMBytes {
		t.Fatal("host RAM default wrong")
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

// The DayTrader figures shared by several tests, from the memoized registry
// runs (registry_test.go).
var (
	fig2Mem, fig4Mem   MemFigure
	fig2Java, fig4Java JavaFigure
)

func runFigs(t *testing.T) {
	t.Helper()
	fig2Mem, fig2Java = figureOf[MemFigure](t, "fig2"), figureOf[JavaFigure](t, "fig3a")
	fig4Mem, fig4Java = figureOf[MemFigure](t, "fig4"), figureOf[JavaFigure](t, "fig5a")
}

func TestFig2BaselineShape(t *testing.T) {
	runFigs(t)
	if len(fig2Mem.VMs) != 4 {
		t.Fatalf("VM rows = %d", len(fig2Mem.VMs))
	}
	for _, v := range fig2Mem.VMs {
		if v.JavaMB < v.OtherMB || v.JavaMB < v.KernelMB {
			t.Fatalf("Java not the largest consumer in %s: %+v", v.Name, v)
		}
	}
	// Kernel sharing: VM 1 owns the shared kernel pages, so its kernel bar
	// is much larger than the others (paper: 219 MB vs ~106 MB).
	if !(fig2Mem.VMs[0].KernelMB > 1.5*fig2Mem.VMs[1].KernelMB) {
		t.Fatalf("kernel owner asymmetry missing: %v vs %v", fig2Mem.VMs[0].KernelMB, fig2Mem.VMs[1].KernelMB)
	}
	// Baseline class metadata essentially unshared.
	for _, b := range fig2Java.Bars {
		cm := b.Cat(jvm.CatClassMeta)
		if cm.MappedMB == 0 {
			t.Fatalf("no class metadata in %s", b.Label)
		}
		if frac := cm.SharedMB / cm.MappedMB; frac > 0.15 {
			t.Fatalf("baseline class metadata %.0f%% shared in %s", frac*100, b.Label)
		}
		// JIT-compiled code unshared (profile-dependent content).
		jc := b.Cat(jvm.CatJITCode)
		if jc.MappedMB > 0 && jc.SharedMB/jc.MappedMB > 0.1 {
			t.Fatalf("JIT code shared in %s", b.Label)
		}
		// Java heap nearly unshared (paper: 0.7 %).
		hp := b.Cat(jvm.CatHeap)
		if hp.SharedMB/hp.MappedMB > 0.1 {
			t.Fatalf("heap %.1f%% shared in %s", 100*hp.SharedMB/hp.MappedMB, b.Label)
		}
	}
	// Code area is mostly shared for the three non-owner JVMs.
	sharedCode := 0
	for _, b := range fig2Java.Bars {
		c := b.Cat(jvm.CatCode)
		if c.SharedMB > 0.5*c.MappedMB {
			sharedCode++
		}
	}
	if sharedCode != 3 {
		t.Fatalf("code area shared in %d JVMs, want 3 (owner pays)", sharedCode)
	}
}

func TestFig4PreloadShape(t *testing.T) {
	runFigs(t)
	// The headline: class metadata mostly eliminated by TPS in the three
	// non-primary JVMs (paper: 89.6 %).
	high := 0
	for _, b := range fig4Java.Bars {
		cm := b.Cat(jvm.CatClassMeta)
		if cm.SharedMB/cm.MappedMB > 0.7 {
			high++
		}
	}
	if high != 3 {
		t.Fatalf("class metadata mostly shared in %d JVMs, want 3", high)
	}
	// Savings grow by roughly the cache content shared into the three
	// non-primary JVMs (paper: 20 → 120 MB per non-primary process).
	delta := fig4Mem.TotalSavingsMB - fig2Mem.TotalSavingsMB
	if delta < 150 {
		t.Fatalf("preload savings delta %.0f MB too small (baseline %.0f, preload %.0f)",
			delta, fig2Mem.TotalSavingsMB, fig4Mem.TotalSavingsMB)
	}
	// Total guest memory shrinks (paper: 3648 → 3314 MB).
	if fig4Mem.TotalMB >= fig2Mem.TotalMB {
		t.Fatalf("preload total %.0f ≥ baseline %.0f", fig4Mem.TotalMB, fig2Mem.TotalMB)
	}
}

func TestFig3cTuscanyShape(t *testing.T) {
	fig := figureOf[JavaFigure](t, "fig3c")
	if len(fig.Bars) != 3 {
		t.Fatalf("bars = %d", len(fig.Bars))
	}
	for _, b := range fig.Bars {
		// Tuscany is an order of magnitude smaller than WAS (Fig. 3(c)'s
		// axis tops at 160 MB versus 800 MB).
		if b.TotalMapped() > 350 {
			t.Fatalf("Tuscany JVM %s too large: %.0f MB", b.Label, b.TotalMapped())
		}
		cm := b.Cat(jvm.CatClassMeta)
		if cm.SharedMB/cm.MappedMB > 0.15 {
			t.Fatal("baseline Tuscany class metadata shared")
		}
	}
}

func TestFig5cTuscanyPreload(t *testing.T) {
	fig := figureOf[JavaFigure](t, "fig5c")
	high := 0
	for _, b := range fig.Bars {
		cm := b.Cat(jvm.CatClassMeta)
		if cm.SharedMB/cm.MappedMB > 0.5 {
			high++
		}
	}
	if high != 2 {
		t.Fatalf("class metadata mostly shared in %d of 3 Tuscany JVMs, want 2", high)
	}
}

func TestFig6PowerDelta(t *testing.T) {
	fig := figureOf[PowerFigure](t, "fig6")
	if fig.NoPreload.SavingMB() <= 0 {
		t.Fatalf("no sharing without preload: %+v", fig.NoPreload)
	}
	if fig.Preload.SavingMB() <= fig.NoPreload.SavingMB() {
		t.Fatalf("preloading did not increase PowerVM sharing: %+v vs %+v", fig.Preload, fig.NoPreload)
	}
	// The delta should be of the order of two extra copies of the used
	// cache (paper: 181 MB for a 100 MB cache across 3 LPARs).
	if fig.DeltaMB() < 50 {
		t.Fatalf("delta too small: %.1f MB", fig.DeltaMB())
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
	runFigs(t)
	if out := RenderMemFigure(fig2Mem); !strings.Contains(out, "FIG2") || !strings.Contains(out, "Total physical memory") {
		t.Fatalf("mem render:\n%s", out)
	}
	if out := RenderJavaFigure(fig2Java); !strings.Contains(out, "Class metadata") {
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

func TestScaleBytesRoundTrip(t *testing.T) {
	c := &Cluster{Cfg: ClusterConfig{Scale: 16, Specs: []workload.Spec{workload.DayTrader()}}}
	if c.ScaleBytes(1<<20) != 16<<20 {
		t.Fatal("ScaleBytes wrong")
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

func TestTraceTimelineRecorded(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale:        testScale,
		Specs:        []workload.Spec{workload.Tuscany()},
		NumVMs:       2,
		EnableTrace:  true,
		SteadyRounds: 5,
	})
	c.Run()
	c.MeasurePerf(2)
	if c.Trace == nil {
		t.Fatal("trace not enabled")
	}
	ev := c.Trace.Events()
	if len(ev) < 6 {
		t.Fatalf("too few events: %d", len(ev))
	}
	kinds := map[string]bool{}
	for _, e := range ev {
		kinds[string(e.Kind)] = true
	}
	for _, want := range []string{"deploy", "phase", "scanner", "measure"} {
		if !kinds[want] {
			t.Fatalf("missing %q events in %v", want, kinds)
		}
	}
	// Timestamps are monotone.
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatal("timeline not monotone")
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
}

func TestClaimsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Fatalf("malformed claim %+v", c)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate claim id %q", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 8 {
		t.Fatalf("claim suite too small: %d", len(seen))
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

func TestFig3bAnd5bShapes(t *testing.T) {
	// The mixed-workload scenario: three different apps in the same WAS.
	base := figureOf[JavaFigure](t, "fig3b")
	if len(base.Bars) != 3 {
		t.Fatalf("bars = %d", len(base.Bars))
	}
	labels := map[string]bool{}
	for _, b := range base.Bars {
		labels[b.Label] = true
		cm := b.Cat(jvm.CatClassMeta)
		if cm.SharedMB/cm.MappedMB > 0.15 {
			t.Fatalf("baseline mixed class metadata shared in %s", b.Label)
		}
	}
	for _, want := range []string{"DayTrader", "SPECjEnterprise", "TPC-W"} {
		if !labels[want] {
			t.Fatalf("missing %s bar", want)
		}
	}
	pre := figureOf[JavaFigure](t, "fig5b")
	high := 0
	for _, b := range pre.Bars {
		cm := b.Cat(jvm.CatClassMeta)
		if cm.SharedMB/cm.MappedMB > 0.6 {
			high++
		}
	}
	// Two non-primary WAS processes share most of their (middleware-
	// dominated) class metadata even though the apps differ — the paper's
	// §5.A point about Fig. 5(b).
	if high != 2 {
		t.Fatalf("mixed preloaded: %d of 3 share most metadata, want 2", high)
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

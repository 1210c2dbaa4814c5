package core

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestFiguresByteIdenticalWithMetrics is the determinism contract of the
// telemetry subsystem: sampling is read-only, so the rendered figure of a
// metrics-on run must be byte-identical to a metrics-off run at the same
// seed.
func TestFiguresByteIdenticalWithMetrics(t *testing.T) {
	memOff, javaOff := Fig2(testOptions("fig2", 1))
	on, _ := runMemo(t, "fig2") // memoized runs collect telemetry
	javaOn, _ := runMemo(t, "fig3a")
	if RenderMemFigure(memOff)+"\n" != on.Text {
		t.Fatal("MemFigure differs with metrics enabled")
	}
	if RenderJavaFigure(javaOff)+"\n" != javaOn.Text {
		t.Fatal("JavaFigure differs with metrics enabled")
	}
	if n := strings.Count(on.telemetry, "TIMELINE — "); n != 1 {
		t.Fatalf("collected %d registries, want 1", n)
	}
}

// TestConvergenceWithinWarmup is the paper-fidelity check: on the §2.C
// DayTrader scenario the cumulative merged-pages series must flatten no
// later than the fixed warm-up window the paper uses — otherwise the fixed
// window would be cutting the merge ramp short.
func TestConvergenceWithinWarmup(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale:         testScale,
		Specs:         []workload.Spec{workload.DayTrader()},
		NumVMs:        4,
		SteadyRounds:  15,
		EnableMetrics: true,
	})
	c.Run()
	s := c.Metrics.Get("ksm.pages_merged")
	if s == nil || s.Len() == 0 {
		t.Fatal("no merged-pages series")
	}
	at, ok := (metrics.ConvergenceConfig{}).ConvergedAt(s)
	if !ok {
		t.Fatal("merged-pages series never flattened")
	}
	if at > c.WarmupEnded() {
		t.Fatalf("converged at %v, after warm-up ended at %v", at, c.WarmupEnded())
	}
}

// TestAdaptiveWarmupMatchesFixedSavings runs the same scenario under fixed
// and adaptive warm-up: the sharing state both flows settle into must agree
// closely (the detector must not end warm-up while merging is still
// ramping).
func TestAdaptiveWarmupMatchesFixedSavings(t *testing.T) {
	build := func(adaptive bool) int64 {
		c := BuildCluster(ClusterConfig{
			Scale:          testScale,
			Specs:          []workload.Spec{workload.DayTrader()},
			NumVMs:         2,
			SteadyRounds:   15,
			AdaptiveWarmup: adaptive,
			EnableMetrics:  true,
		})
		c.Run()
		return c.Analyze().TotalSavingsBytes()
	}
	fixed, adaptive := build(false), build(true)
	if fixed == 0 {
		t.Fatal("no savings in fixed run")
	}
	ratio := float64(adaptive) / float64(fixed)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("adaptive savings %d vs fixed %d (ratio %.2f)", adaptive, fixed, ratio)
	}
}

// TestTelemetryIdenticalAcrossJobs reads the Fig. 7 sweep memoized at two
// pool widths, telemetry collected from the concurrent workers: the rendered
// timelines and CSV must be byte-identical (and under -race this doubles as
// the concurrent-collection safety check).
func TestTelemetryIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	seq, par := runMemo(t, "fig7")
	if seq.telemetry != par.telemetry {
		t.Fatal("timelines or metrics CSV differ between -jobs 1 and -jobs 4")
	}
	// Quick Fig. 7 is four VM counts × two configurations, one registry each.
	for _, header := range []string{"TIMELINE — fig7 n=", "# fig7 n="} {
		if n := strings.Count(seq.telemetry, header); n != 8 {
			t.Fatalf("%d %q sections, want 8:\n%.200s", n, header, seq.telemetry)
		}
	}
}

// TestClusterGaugeSanity cross-checks sampled gauges against the direct
// accessors at the end of a run.
func TestClusterGaugeSanity(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale:         testScale,
		Specs:         []workload.Spec{workload.DayTrader()},
		NumVMs:        2,
		SteadyRounds:  15,
		EnableMetrics: true,
	})
	c.Run()
	c.Metrics.Sample() // align the final sample with the accessors
	last := func(name string) float64 {
		s := c.Metrics.Get(name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		v, ok := s.Last()
		if !ok {
			t.Fatalf("empty series %q", name)
		}
		return v.V
	}
	pm := c.Host.Phys()
	if got := last("mem.frames_in_use"); got != float64(pm.FramesInUse()) {
		t.Fatalf("frames_in_use gauge %g != %d", got, pm.FramesInUse())
	}
	if got := last("mem.frames_ksm"); got != float64(pm.KSMFrames()) {
		t.Fatalf("frames_ksm gauge %g != %d", got, pm.KSMFrames())
	}
	st := c.Scanner.Stats()
	if got := last("ksm.pages_shared"); got != float64(st.PagesShared) {
		t.Fatalf("pages_shared gauge %g != %d", got, st.PagesShared)
	}
	if got := last("ksm.pages_scanned"); got != float64(st.PagesScanned) {
		t.Fatalf("pages_scanned gauge %g != %d", got, st.PagesScanned)
	}
	if last("jvm.classes_loaded") == 0 || last("jvm.heap_used_bytes") == 0 {
		t.Fatal("JVM gauges stayed zero")
	}
	if last("mem.frames_ksm") == 0 {
		t.Fatal("no KSM frames at end of run")
	}
	if csv := c.Metrics.CSV(); !strings.HasPrefix(csv, "time_s,") {
		t.Fatalf("CSV header: %.60s", csv)
	}
}

// TestWaitConvergedRequiresMetrics pins the fail-fast contract.
func TestWaitConvergedRequiresMetrics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without EnableMetrics")
		}
	}()
	c := BuildCluster(ClusterConfig{
		Scale:        testScale,
		Specs:        []workload.Spec{workload.DayTrader()},
		NumVMs:       1,
		SteadyRounds: 15,
	})
	c.WaitConverged(metrics.ConvergenceConfig{}, 0)
}

// TestTelemetryCollectorOrdering pins the (Seq, Label) ordering and
// nil-safety of the cross-run collector.
func TestTelemetryCollectorOrdering(t *testing.T) {
	var nilT *Telemetry
	nilT.Collect("x", nil) // must not panic
	if nilT.Entries() != nil {
		t.Fatal("nil collector not inert")
	}
	tel := NewTelemetry()
	c := BuildCluster(ClusterConfig{
		Scale:         testScale,
		Specs:         []workload.Spec{workload.DayTrader()},
		NumVMs:        1,
		SteadyRounds:  15,
		EnableMetrics: true,
	})
	tel.CollectAt(2, "later", c.Metrics)
	tel.CollectAt(0, "earlier", c.Metrics)
	tel.Collect("ignored-nil", nil) // nil registry entries are skipped
	got := tel.Entries()
	if len(got) != 2 || got[0].Label != "earlier" || got[1].Label != "later" {
		t.Fatalf("entries = %+v", got)
	}
}

package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestFiguresByteIdenticalWithMetrics is the determinism contract of the
// telemetry subsystem: sampling is read-only, so the rendered figure of a
// metrics-on run must be byte-identical to a metrics-off run at the same
// seed.
func TestFiguresByteIdenticalWithMetrics(t *testing.T) {
	memOff, javaOff := Fig2(testOptions(1))
	on, _ := runMemo(t, "fig2") // memoized runs collect telemetry
	javaOn, _ := runMemo(t, "fig3a")
	if RenderMemFigure(memOff)+"\n" != on.Text {
		t.Fatal("MemFigure differs with metrics enabled")
	}
	if RenderJavaFigure(javaOff)+"\n" != javaOn.Text {
		t.Fatal("JavaFigure differs with metrics enabled")
	}
	if n := strings.Count(on.Timelines, "TIMELINE — "); n != 1 {
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
	at, ok := convergedAt(s)
	if !ok {
		t.Fatal("merged-pages series never flattened")
	}
	if at > c.WarmupEnded() {
		t.Fatalf("converged at %v, after warm-up ended at %v", at, c.WarmupEnded())
	}
}

// convergedAt scans a series for its earliest flat window — 16 consecutive
// samples whose spread stays within 2 % of the window maximum (or of 1, for
// a near-zero series) — and returns the time of that window's first sample.
// At the registry's 500 ms cadence the window spans 8 s of virtual time,
// long enough to bridge the idle gaps between KSM wake-ups and between
// sequential guest boots. ok is false when the series never flattens.
func convergedAt(s *metrics.Series) (at simclock.Time, ok bool) {
	const window, tolerance = 16, 0.02
	for i := 0; i+window <= s.Len(); i++ {
		lo, hi := s.At(i).V, s.At(i).V
		for j := i + 1; j < i+window; j++ {
			lo, hi = math.Min(lo, s.At(j).V), math.Max(hi, s.At(j).V)
		}
		if hi-lo <= tolerance*math.Max(math.Abs(hi), 1) {
			return s.At(i).At, true
		}
	}
	return 0, false
}

// TestTelemetryIdenticalAcrossJobs reads the Fig. 7 sweep memoized at two
// pool widths, each cell's series rendered on its worker: the timelines and
// CSV must be byte-identical, one section per cell in submission order.
func TestTelemetryIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	seq, par := runMemo(t, "fig7")
	if seq.Timelines != par.Timelines || seq.MetricsCSV != par.MetricsCSV {
		t.Fatal("timelines or metrics CSV differ between -jobs 1 and -jobs 4")
	}
	// Quick Fig. 7 is four VM counts × two configurations, one cell each,
	// and their sections follow the cells' submission order.
	var want, timelines, series []string
	for _, c := range testOptions(1).sweepCells("fig7", workload.DayTrader(), []int{2, 7, 8, 9}, 1) {
		want = append(want, c.label)
	}
	for _, line := range strings.Split(seq.Timelines+seq.MetricsCSV, "\n") {
		if rest, ok := strings.CutPrefix(line, "TIMELINE — "); ok {
			timelines = append(timelines, strings.SplitN(rest, "  ", 2)[0])
		} else if rest, ok := strings.CutPrefix(line, "# "); ok {
			series = append(series, rest)
		}
	}
	if !slices.Equal(timelines, want) || !slices.Equal(series, want) {
		t.Fatalf("sections %q and %q, want %q", timelines, series, want)
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

// benchSamplingCluster runs the DayTrader pair scenario with or without the
// metrics registry attached; the Off/On pair below quantifies the sampling
// overhead (the subsystem's budget is "negligible when off, cheap when on").
func benchSamplingCluster(b *testing.B, enabled bool) {
	for i := 0; i < b.N; i++ {
		c := BuildCluster(ClusterConfig{
			Scale: testScale, Specs: []workload.Spec{workload.DayTrader()},
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

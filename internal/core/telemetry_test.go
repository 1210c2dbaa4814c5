package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

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
		t.Fatalf("collected %d timelines, want 1", n)
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
	times, merged := gaugeColumn(t, c.telemetry, "ksm.pages_merged")
	if len(merged) == 0 {
		t.Fatal("no merged-pages samples")
	}
	at, ok := convergedAt(times, merged)
	if !ok {
		t.Fatal("merged-pages series never flattened")
	}
	if at > c.warmupEnded {
		t.Fatalf("converged at %v, after warm-up ended at %v", at, c.warmupEnded)
	}
}

// gaugeColumn returns a gauge's sample times and values: the sampler's ticks from
// the one at which the gauge joined.
func gaugeColumn(t testing.TB, s *sampler, name string) ([]simclock.Time, []float64) {
	t.Helper()
	i, found := slices.BinarySearch(s.names, name)
	if !found {
		t.Fatalf("no gauge %q", name)
	}
	return s.times[s.joined[i]:], s.cols[i]
}

// convergedAt scans a column for its earliest flat window — 16 consecutive
// samples whose spread stays within 2 % of the window maximum (or of 1, for
// a near-zero column) — and returns the time of that window's first sample.
// At the sampler's 500 ms cadence the window spans 8 s of virtual time,
// long enough to bridge the idle gaps between KSM wake-ups and between
// sequential guest boots. ok is false when the column never flattens.
func convergedAt(times []simclock.Time, vs []float64) (at simclock.Time, ok bool) {
	const window = 16
	for i := 0; i+window <= len(vs); i++ {
		lo, hi := slices.Min(vs[i:i+window]), slices.Max(vs[i:i+window])
		if hi-lo <= 0.02*math.Max(math.Abs(hi), 1) {
			return times[i], true
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
	c.telemetry.sample() // align the final sample with the accessors
	last := func(name string) float64 {
		_, vs := gaugeColumn(t, c.telemetry, name)
		return vs[len(vs)-1]
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
	if csv := c.telemetry.csv(); !strings.HasPrefix(csv, "time_s,") {
		t.Fatalf("CSV header: %.60s", csv)
	}
}

// benchSamplingCluster runs the DayTrader pair scenario with or without the
// telemetry sampler attached; the Off/On pair below quantifies the sampling
// overhead (the subsystem's budget is "negligible when off, cheap when on").
func benchSamplingCluster(b *testing.B, enabled bool) {
	for i := 0; i < b.N; i++ {
		c := BuildCluster(ClusterConfig{
			Scale: testScale, Specs: []workload.Spec{workload.DayTrader()},
			NumVMs: 2, SteadyRounds: 15, EnableMetrics: enabled,
		})
		c.Run()
		if enabled && len(c.telemetry.times) == 0 {
			b.Fatal("no samples taken")
		}
	}
}

// BenchmarkSamplingOverheadOff is the telemetry-disabled baseline.
func BenchmarkSamplingOverheadOff(b *testing.B) { benchSamplingCluster(b, false) }

// BenchmarkSamplingOverheadOn runs the same cluster with the sampler reading
// every gauge at its 500 ms cadence.
func BenchmarkSamplingOverheadOn(b *testing.B) { benchSamplingCluster(b, true) }

// TestTelemetryPinned holds the -timeline and -metrics-csv sections of a
// fig2 cell and a chaos cell at test scale to SHA-256 digests read off the
// general-purpose metrics registry the cluster's sampler replaced. The chaos
// cell registers its eight faults.* gauges after the cluster's t=0 sample,
// so its first CSV row leaves those columns empty and their timelines are
// one sample short.
func TestTelemetryPinned(t *testing.T) {
	o := testOptions(1)
	o.Telemetry = true
	const chaosLabel = "chaos n=2 profile=stormy"
	cases := []struct {
		cell             cell
		samples          int
		firstRow         string // the t=0 row's leading cells
		timeline, series string
	}{
		{dayTrader().cellAt(o, false, "", nil), 35, "0.000,0,1.06258432e+08,0,",
			"d9f7ad7e29c274100453f914c8d8f6056287ee63476c6cd8b67f11b67a6e4f6e",
			"0b6f9a2470850e89ab20455f9d51ed01af2b9641cde5daee3955076023095276"},
		{clusterCell(chaosLabel, o.clusterConfig([]workload.Spec{workload.DayTrader()}, 2, true),
			func(c *Cluster) ChaosRow { return chaosCell(c, o.ChaosSeed, chaosProfiles[1], chaosLabel) }), 34, "0.000,,,,,,,,,0,1.06258432e+08,0,",
			"56f0139ca46d3bf7bf22eb5b09bd9ebd7a09613ce25c1224b9699093bf1f53a5",
			"394a5ac7444e130db992b713638c0d49f38793c0c9d5c01f657085b0655be4dc"},
	}
	for _, tc := range cases {
		v := tc.cell.run()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(v.timeline))); got != tc.timeline {
			t.Errorf("%s: timeline digest %s, want %s:\n%s", tc.cell.label, got, tc.timeline, v.timeline)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(v.series))); got != tc.series {
			t.Errorf("%s: series digest %s, want %s:\n%s", tc.cell.label, got, tc.series, v.series)
		}
		// "# label", the header, then one row per sample.
		if rows := strings.Count(v.series, "\n") - 2; rows != tc.samples {
			t.Errorf("%s: %d CSV rows, want %d", tc.cell.label, rows, tc.samples)
		}
		if !strings.Contains(v.series, "\n"+tc.firstRow) {
			t.Errorf("%s: no CSV row starts %q", tc.cell.label, tc.firstRow)
		}
	}
}

// newTestSampler is a sampler on a fresh clock.
func newTestSampler() (*simclock.Clock, *sampler) {
	clock := simclock.New()
	return clock, &sampler{clock: clock}
}

func TestSamplerNameOrder(t *testing.T) {
	_, s := newTestSampler()
	s.gauge("zebra", func() float64 { return 1 })
	s.gauge("alpha", func() float64 { return 2 })
	s.gauge("mid.gauge", func() float64 { return 3 })
	if got := strings.Join(s.names, " "); got != "alpha mid.gauge zebra" {
		t.Fatalf("gauge order = %s", got)
	}
	s.sample()
	if got := fmt.Sprint(s.cols); got != "[[2] [3] [1]]" {
		t.Fatalf("columns = %s, want each probe under its own name", got)
	}
}

func TestSamplerDuplicateGaugePanics(t *testing.T) {
	for _, name := range []string{"dup", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic registering %q twice", name)
				}
			}()
			_, s := newTestSampler()
			s.gauge("dup", func() float64 { return 0 })
			s.gauge(name, func() float64 { return 1 })
		}()
	}
}

func TestSamplerCadence(t *testing.T) {
	clock, s := newTestSampler()
	n := 0.0
	s.gauge("ticker", func() float64 { n++; return n })
	s.start()
	clock.RunFor(5 * sampleInterval)
	// One sample at start plus five periodic ones, each reading the probe once.
	times, vs := gaugeColumn(t, s, "ticker")
	if len(times) != 6 || times[0] != 0 || times[5] != 5*sampleInterval {
		t.Fatalf("sample times = %v", times)
	}
	if !slices.Equal(vs, []float64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("samples = %v", vs)
	}
}

func TestSamplerCSVWide(t *testing.T) {
	clock, s := newTestSampler()
	s.gauge("b.second", func() float64 { return 2 })
	s.gauge("a.first", func() float64 { return float64(clock.Now() / sampleInterval) })
	s.start()
	clock.RunFor(2 * sampleInterval)
	want := "time_s,a.first,b.second\n" +
		"0.000,0,2\n" +
		"0.500,1,2\n" +
		"1.000,2,2\n"
	if got := s.csv(); got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestSamplerCSVLateGauge registers a gauge after two ticks: its leading
// cells stay empty and its timeline row covers only its own samples.
func TestSamplerCSVLateGauge(t *testing.T) {
	clock, s := newTestSampler()
	s.gauge("early", func() float64 { return 1 })
	s.start()
	clock.RunFor(sampleInterval)
	s.gauge("late", func() float64 { return 9 })
	s.gauge("later", func() float64 { return 5 })
	clock.RunFor(sampleInterval)
	want := "time_s,early,late,later\n" +
		"0.000,1,,\n" +
		"0.500,1,,\n" +
		"1.000,1,9,5\n"
	if got := s.csv(); got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
	s.gauge("unsampled", func() float64 { return 0 })
	tl := s.timeline("late")
	if !strings.Contains(tl, "3 samples") || strings.Contains(tl, "unsampled") {
		t.Fatalf("timeline:\n%s", tl)
	}
}

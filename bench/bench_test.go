package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestSelfTime(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60), which overlap (a
	// fan-out), so they cover [10,60) of it; a has a child c [15,25).
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 15, End: 25, Parent: 1},
		{Name: "a", Start: 70, End: 80, Parent: 0},
	}
	want := map[string]int64{"root": 100 - 50 - 10, "a": 20 + 10, "b": 30, "c": 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsAndAdopts(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	child := tr.fork()
	child.end(child.begin("job"))
	inner := tr.begin("inner")
	tr.end(inner)
	tr.adopt(child)
	tr.end(outer)
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if want := map[string]int{"outer": -1, "inner": 0, "job": 0}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	var off *tracer
	off.end(off.begin("nothing")) // a nil tracer records nothing and does not panic
	off.adopt(off.fork())
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {100, 90}, {199, 90}, {200, 95}, {300, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i + 1)
	}
	if got := tail(values, 95); got != 90 {
		t.Errorf("tail of 100 samples at p95 = %g, want the p90 value 90", got)
	}
	if got := percentile(values, 50); got != 50 {
		t.Errorf("percentile(50) = %g, want 50", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %g %g %g, want 3.5 24 160", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) gives [1.0, 2.0, 3.0].
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %g %g %g, want 1 2 3", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_speed_x", Better: "higher", Bound: 0.10}
	tight := func(center float64) summary {
		return summarize([]float64{center * 0.99, center, center * 1.01})
	}
	wide := func(center float64) summary {
		return summarize([]float64{center * 0.8, center, center * 1.2})
	}
	for _, c := range []struct {
		name       string
		base, cand summary
		def        metricDef
		want       string
	}{
		{"within the bound", tight(10), tight(10.9), lower, "ok"},
		{"slower than the bound allows", tight(10), tight(11.2), lower, "worse"},
		{"faster", tight(10), tight(5), lower, "ok"},
		{"higher is better, and it fell", tight(100), tight(85), higher, "worse"},
		{"higher is better, and it rose", tight(100), tight(130), higher, "ok"},
		{"noisy and overlapping", wide(10), wide(11.5), lower, "unresolved"},
		{"noisy but every run better", wide(10), wide(5), lower, "ok"},
		{"noisy but every run worse", wide(10), wide(20), lower, "worse"},
	} {
		if got := verdict(c.base, c.cand, c.def); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestDigestCanonicalisation(t *testing.T) {
	digestOf := func(sections ...string) string {
		var o outputs
		for i := 0; i+1 < len(sections); i += 2 {
			o.text(sections[i], sections[i+1])
		}
		return o.digest()
	}
	ref := digestOf("fig", "a  b\nc\n", "csv", "1,2\n")
	for name, same := range map[string]string{
		"CRLF line ends":        digestOf("fig", "a  b\r\nc\r\n", "csv", "1,2\r\n"),
		"blanks at line ends":   digestOf("fig", "a  b \t\nc  \n", "csv", "1,2\n"),
		"missing final newline": digestOf("fig", "a  b\nc", "csv", "1,2"),
		"extra final newlines":  digestOf("fig", "a  b\nc\n\n\n", "csv", "1,2\n"),
	} {
		if same != ref {
			t.Errorf("%s changed the digest", name)
		}
	}
	for name, other := range map[string]string{
		"a changed cell":     digestOf("fig", "a  b\nd\n", "csv", "1,2\n"),
		"inner blanks":       digestOf("fig", "a b\nc\n", "csv", "1,2\n"),
		"a renamed section":  digestOf("fig2", "a  b\nc\n", "csv", "1,2\n"),
		"sections reordered": digestOf("csv", "1,2\n", "fig", "a  b\nc\n"),
	} {
		if other == ref {
			t.Errorf("%s left the digest unchanged", name)
		}
	}
	var a, b outputs
	a.value("stats", struct{ X, Y int }{1, 2})
	b.value("stats", struct{ X, Y int }{1, 3})
	if a.digest() == b.digest() {
		t.Error("a changed statistic left the digest unchanged")
	}
}

// TestBenchmarkJSONAgrees holds the contract file at the root of the
// repository to the names, units, directions and bounds this program uses.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ:\n%v\n%v", b.Workloads, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", b.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestPlanFor(t *testing.T) {
	if got := planFor(nominalSeconds); got != fullPlan {
		t.Errorf("planFor(%d) = %+v, want the full plan %+v", nominalSeconds, got, fullPlan)
	}
	if got := planFor(1); got.SteadyRounds != 6 || got.IdleIntervals != 60 || got.PerfRounds != 1 || got.Scale != fullPlan.Scale {
		t.Errorf("planFor(1) = %+v", got)
	}
}

// TestPipelineMatchesCore holds the benchmark's open-coded pipeline (build,
// warm-up, its own steady loop, analysis, its own figure construction) to
// what core.Fig4 and core.Fig3b return for the same options.
func TestPipelineMatchesCore(t *testing.T) {
	o := core.Options{Scale: smokePlan.Scale, Quick: true, Seed: 7, Jobs: 1}
	quick := smokePlan
	quick.SteadyRounds = 15 // what Options.Quick runs
	scs := paperScenarios(quick, o.Seed)
	run := func(sc scenario) *job {
		j := &job{sc: sc}
		j.build()
		j.run()
		return j
	}
	fig4 := run(scs[1])
	wantMem, wantJava := core.Fig4(o)
	if got, want := core.RenderMemFigure(*fig4.mem), core.RenderMemFigure(wantMem); got != want {
		t.Errorf("Fig. 4 differs from core.Fig4:\n%s\n%s", got, want)
	}
	if got, want := core.RenderJavaFigure(*fig4.java), core.RenderJavaFigure(wantJava); got != want {
		t.Errorf("Fig. 5(a) differs from core.Fig4:\n%s\n%s", got, want)
	}
	fig3b := run(scs[2])
	if got, want := core.RenderJavaFigure(*fig3b.java), core.RenderJavaFigure(core.Fig3b(o)); got != want {
		t.Errorf("Fig. 3(b) differs from core.Fig3b:\n%s\n%s", got, want)
	}
}

// TestSmoke runs every workload under the smoke plan, traced (which covers
// the untraced path and adds the probes), and one of them untraced as well:
// an exported-API change that breaks the harness, or a model change that
// moves the digests, fails here in seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven small simulations")
	}
	run := func(name string, traced bool) {
		res := runOnce(runOpts{Workload: name, Seed: defaultSeed, Plan: smokePlan, Traced: traced})
		checkGolden(res)
		compared := false
		for _, c := range res.Checks {
			compared = compared || c.Name == "digest/golden"
			if !c.OK {
				t.Errorf("%s traced=%v: check %s failed: %s", name, traced, c.Name, c.Detail)
			}
		}
		if !compared {
			t.Errorf("%s: golden.json has no digest for the smoke plan", name)
		}
		defs, values := res.metrics()
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s traced=%v: metric %s = %v (present %v)", name, traced, d.Name, v, ok)
			}
			if !traced && v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v)
			}
		}
		if len(values) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics reported, %d defined", name, traced, len(values), len(defs))
		}
	}
	for _, w := range workloads {
		run(w.Name, true)
	}
	run("scan_churn", false)
}

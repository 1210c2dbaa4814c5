package core

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/thp"
	"repro/internal/workload"
)

// testScale keeps the integration tests fast; the real experiments run at
// DefaultScale.
const testScale = 48

// testOptions are the canonical options of the memoized registry runs.
func testOptions(jobs int) Options {
	return Options{Scale: testScale, Quick: true, Jobs: jobs, ChaosSeed: 7}
}

// memoWidths are the pool widths the registry is memoized at.
var memoWidths = [2]int{1, 4}

// memo runs the registry as one invocation per width, with telemetry on,
// always in print order: a test asking for a row first runs every row
// before it that has not run yet. Each cell thus runs once per width and
// test binary, however many experiments read it, and the wide invocation's
// cells are started in one order whichever test comes first. The
// determinism test compares the two widths' results; the qualitative tests
// read the Jobs 1 figure.
var memo struct {
	invocations [2]func(Experiment) (Result, error)
	rows        [2][]Result // per width, the rows run so far
	// started holds the wide invocation's cell starts by the row that
	// started them, and peak the most cells it had in flight, both seen
	// through Options.Progress.
	current        string
	started        map[string][]string
	inFlight, peak int
}

// runMemo returns experiment id's memoized results at Jobs 1 and Jobs 4.
// The two invocations share nothing and advance concurrently: overlapping
// the single-threaded one with the wide one is what keeps this suite's wall
// time down.
func runMemo(t *testing.T, id string) (seq, par Result) {
	t.Helper()
	rows := Experiments()
	at := slices.IndexFunc(rows, func(e Experiment) bool { return e.ID == id })
	if at < 0 {
		t.Fatalf("no experiment %q", id)
	}
	if memo.invocations[0] == nil {
		memo.started = map[string][]string{}
		for w, jobs := range memoWidths {
			o := testOptions(jobs)
			o.Telemetry = true
			if w == 1 {
				// The runner serializes the callback and the rows run one
				// after another, so current names every event's experiment.
				o.Progress = func(ev JobEvent) {
					if ev.Done {
						memo.inFlight--
						return
					}
					memo.inFlight++
					memo.peak = max(memo.peak, memo.inFlight)
					memo.started[memo.current] = append(memo.started[memo.current], ev.Label)
				}
			}
			memo.invocations[w] = NewInvocation(o)
		}
	}
	var wg sync.WaitGroup
	for w := range memoWidths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(memo.rows[w]) <= at {
				e := rows[len(memo.rows[w])]
				if w == 1 {
					memo.current = e.ID
				}
				res, err := memo.invocations[w](e)
				if err != nil {
					t.Errorf("%s at Jobs %d: %v", e.ID, memoWidths[w], err)
				}
				memo.rows[w] = append(memo.rows[w], res)
			}
		}()
	}
	wg.Wait()
	return memo.rows[0][at], memo.rows[1][at]
}

// figureOf returns experiment id's typed figure from the memoized
// sequential run.
func figureOf[F any](t *testing.T, id string) F {
	t.Helper()
	seq, _ := runMemo(t, id)
	return seq.Figure.(F)
}

// TestRegistryDeterministicAcrossJobs is the one determinism contract of the
// parallel runner: every registered experiment's text, CSV and telemetry must
// be byte-identical whether its cells execute sequentially or on four
// workers.
func TestRegistryDeterministicAcrossJobs(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && (e.ID == "fig7" || e.ID == "fig8") {
				t.Skip("sweep is slow")
			}
			seq, par := runMemo(t, e.ID)
			if seq.Text != par.Text {
				t.Errorf("text differs between -jobs 1 and -jobs 4:\n%s\n---\n%s", seq.Text, par.Text)
			}
			if seq.CSV != par.CSV {
				t.Errorf("CSV differs between -jobs 1 and -jobs 4:\n%s\n---\n%s", seq.CSV, par.CSV)
			}
			if seq.Timelines != par.Timelines || seq.MetricsCSV != par.MetricsCSV {
				t.Error("telemetry differs between -jobs 1 and -jobs 4")
			}
			if seq.Text == "" || seq.CSV == "" {
				t.Error("empty output")
			}
		})
	}
}

// TestInvocationRunsEachCellOnce watches the memo's wide invocation — quick,
// on four workers, over every registered row, check last — through
// Options.Progress: every cell starts exactly once, fig3a and fig5a start
// none (they read fig2's and fig4's), the rows of all run 30 distinct cells,
// check starts only its three counterfactual ones, and no more than Jobs
// cells are ever in flight.
func TestInvocationRunsEachCellOnce(t *testing.T) {
	runMemo(t, "check")
	started, count := memo.started, map[string]int{}
	for _, labels := range started {
		for _, label := range labels {
			count[label]++
		}
	}
	for label, n := range count {
		if n != 1 {
			t.Errorf("cell %q started %d times, want once", label, n)
		}
	}
	if len(started["fig3a"])+len(started["fig5a"]) != 0 {
		t.Errorf("fig3a started %q and fig5a %q, want none", started["fig3a"], started["fig5a"])
	}
	all, _ := Lookup("all")
	n := 0
	for _, e := range all {
		n += len(started[e.ID])
	}
	if n != 28 {
		t.Errorf("all ran %d distinct cells, want 28", n)
	}
	// Sorted: workers may report their starts in any order.
	got := started["check"]
	slices.Sort(got)
	if want := []string{"daytrader x4 shared=false nio-salt", "daytrader x4 shared=true per-vm-layout",
		"fig6 preload=true 64K pages"}; !slices.Equal(got, want) {
		t.Errorf("check started %q, want only its counterfactual cells %q", got, want)
	}
	// The factual cells the claims read, each run by the row that owns it.
	for _, label := range []string{"daytrader x4 shared=false", "daytrader x4 shared=true", "mixed x3 shared=false",
		"mixed x3 shared=true", "tuscany x3 shared=false", "tuscany x3 shared=true", "fig6 preload=false",
		"fig6 preload=true", "fig7 n=8 shared=false rep=1", "fig7 n=8 shared=true rep=1"} {
		if count[label] != 1 {
			t.Errorf("claim cell %q started %d times, want once", label, count[label])
		}
	}
	if memo.peak > memoWidths[1] {
		t.Errorf("%d cells in flight at once, want at most %d", memo.peak, memoWidths[1])
	}
}

// TestInvocationReportsBrokenCell runs cells that break a law: one leaks a
// reference to a mapped frame, one frees a mapped frame and then analyzes the
// host. The invocation must verify each cell's host before dropping it and
// return one line naming the cell and the law; an analysis's broken law is
// reported ahead of the leak check.
func TestInvocationReportsBrokenCell(t *testing.T) {
	cfg := Options{Scale: 64}.clusterConfig([]workload.Spec{workload.Tuscany()}, 2, true)
	// onFrame hands fn VM 0's first mapped base frame that nothing else references.
	onFrame := func(c *Cluster, fn func(mem.FrameID)) {
		pm := c.Host.Phys()
		c.Host.VMs()[0].HostPageTable().Range(func(_ mem.VPN, pte mem.PTE) bool {
			if pte.Swapped || pte.Huge || pm.RefCount(pte.Frame) != 1 {
				return true
			}
			fn(pte.Frame)
			return false
		})
	}
	for _, tc := range []struct {
		label, law string
		measure    func(*Cluster) int
	}{
		{"leaky", "refcount", func(c *Cluster) int { onFrame(c, c.Host.Phys().IncRef); return 0 }},
		{"dangling", "allocated:", func(c *Cluster) int {
			onFrame(c, c.Host.Phys().DecRef)
			c.Analyze()
			return 0
		}},
	} {
		e := Experiment{ID: tc.label, run: func(inv *invocation) (Result, error) {
			runCells[int](inv, []cell{
				clusterCell("clean", cfg, func(*Cluster) int { return 0 }),
				clusterCell(tc.label, cfg, tc.measure),
			})
			return Result{}, nil
		}}
		_, err := NewInvocation(Options{Jobs: 1})(e)
		var broken *CellError
		if !errors.As(err, &broken) || broken.Label != tc.label {
			t.Fatalf("invocation error = %v, want a CellError naming cell %q", err, tc.label)
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+tc.label+`"`) || !strings.Contains(msg, tc.law) ||
			strings.Contains(msg, "\n") {
			t.Errorf("error %q: want one line naming the cell and the broken %s law", msg, tc.law)
		}
	}
}

// TestCellLabelsKeyConfigs enumerates every registered experiment's cells in
// one dry invocation — at the default options and under -incremental -thp
// fhpm — where runCells files each label's config and panics on a second,
// different config under the same label: a label is a cell's key only if
// equal labels mean equal configs.
func TestCellLabelsKeyConfigs(t *testing.T) {
	for _, o := range []Options{{}, {Knobs: Knobs{IncrementalScan: true, THPPolicy: thp.PolicyFHPM}}} {
		inv := newInvocation(o)
		inv.dry = true
		for _, e := range Experiments() {
			e.run(inv)
		}
		// fig2-5: 6, fig6: 2, fig7: 9 counts × 2 × 3 reps, fig8: 4 × 2 × 3,
		// thp-tradeoff 8, dirtylog 12, jitshare 4, chaos 4, check's own 3.
		if n := len(inv.cfgs); n != 117 {
			t.Errorf("%+v: %d distinct cells, want 117", o.Knobs, n)
		}
	}
	// The guard itself: one label, two configs.
	defer func() {
		if recover() == nil {
			t.Error("two configs under one label went unnoticed")
		}
	}()
	inv := newInvocation(Options{})
	inv.dry = true
	a := dayTrader().cellAt(inv.o, false, "", nil)
	b, cfg := a, a.cfg.(ClusterConfig)
	cfg.PerVMNIOSalt = true
	b.cfg = cfg
	runCells[breakdown](inv, []cell{a, b})
}

// TestRegistryLookup pins id resolution: ids are unique, "all" expands to the
// InAll rows in print order, and an unknown id is an error naming it.
func TestRegistryLookup(t *testing.T) {
	inAll := 0
	for _, e := range Experiments() {
		if exps, err := Lookup(e.ID); err != nil || len(exps) != 1 || e.ID == "all" {
			t.Fatalf("Lookup(%q) = %d rows, %v; want exactly its own", e.ID, len(exps), err)
		}
		if e.InAll {
			inAll++
		}
	}
	if all, err := Lookup("all"); err != nil || len(all) != inAll || all[0].ID != "table1" {
		t.Fatalf("Lookup(all) = %d rows, %v; want the %d InAll rows from table1", len(all), err, inAll)
	}
	if _, err := Lookup("nosuch"); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("Lookup(nosuch) error = %v", err)
	}
}

// TestKnobsReachEveryCluster sets every Knobs field to a non-zero value by
// reflection — so a field added later is covered without editing the test —
// and requires Options.clusterConfig to carry all of them, along with the
// rest of the conversion.
func TestKnobsReachEveryCluster(t *testing.T) {
	var k Knobs
	v := reflect.ValueOf(&k).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 2))
		default:
			t.Fatalf("Knobs.%s: teach this test to set a %s", v.Type().Field(i).Name, f.Kind())
		}
		if f := v.Field(i); f.IsZero() {
			t.Fatalf("Knobs.%s still zero", v.Type().Field(i).Name)
		}
	}
	o := Options{Scale: 32, Seed: 9, Quick: true, Telemetry: true, Knobs: k}
	cfg := o.clusterConfig([]workload.Spec{workload.Tuscany()}, 3, true)
	if cfg.Knobs != k {
		t.Fatalf("knobs dropped:\n got  %+v\n want %+v", cfg.Knobs, k)
	}
	if cfg.Scale != 32 || cfg.BaseSeed != 9 || cfg.NumVMs != 3 || !cfg.SharedClasses ||
		cfg.SteadyRounds != 15 || !cfg.EnableMetrics || len(cfg.Specs) != 1 {
		t.Fatalf("conversion wrong: %+v", cfg)
	}
	if cfg := (Options{}).clusterConfig(nil, 1, false); cfg.Scale != DefaultScale ||
		cfg.SteadyRounds != 0 || cfg.EnableMetrics || cfg.Knobs != (Knobs{}) {
		t.Fatalf("zero Options changed the defaults: %+v", cfg)
	}
}

// TestOptionsValidate is the table of inputs tpsim refuses up front instead
// of panicking on or silently replacing with a default.
func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options rejected: %v", err)
	}
	for _, ok := range []Options{
		{Scale: 64, Jobs: 8, Knobs: Knobs{THPPolicy: thp.PolicyAlways, THPKSMSplit: true}},
		{Scale: maxJITShareScale, Knobs: Knobs{JITShare: true}},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid Options rejected: %v", err)
		}
	}
	for _, tc := range []struct {
		want string // substring naming the offending flag (and, for a pair, its partner)
		o    Options
	}{
		{"-scale", Options{Scale: -4}},
		{"-scale", Options{Scale: 65}},
		{"-jobs", Options{Jobs: -1}},
		{"-jitshare", Options{Scale: 64, Knobs: Knobs{JITShare: true}}},
		{"-thp-ksm-split needs -thp always (got -thp fhpm", Options{Knobs: Knobs{THPPolicy: thp.PolicyFHPM, THPKSMSplit: true}}},
		{"-thp-ksm-split needs -thp always (got -thp never", Options{Knobs: Knobs{THPKSMSplit: true}}},
	} {
		err := tc.o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: Validate() = %v, want a one-line error naming it", tc.want, err)
		}
	}
}

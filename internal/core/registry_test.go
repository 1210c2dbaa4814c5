package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/thp"
	"repro/internal/workload"
)

// testScale keeps the integration tests fast; the real experiments run at
// DefaultScale.
const testScale = 48

// testOptions are the canonical options of the memoized registry runs.
func testOptions(id string, jobs int) Options {
	o := Options{Scale: testScale, Quick: true, Jobs: jobs, ChaosSeed: 7}
	if id == "fig7" || id == "fig8" {
		o.Scale = 2 * testScale // the VM-count sweeps build up to nine guests per cell
	}
	return o
}

// registryRun is one memoized run of a registry row: its result and the
// rendered telemetry (timelines + metrics CSV) of every cluster it built.
type registryRun struct {
	Result
	telemetry string
}

// memo holds every registry run the tests asked for, so each experiment runs
// at most once per width and test binary: the determinism test compares the
// Jobs 1 and Jobs 4 entries, the qualitative tests read the Jobs 1 figure.
var memo = map[string][2]registryRun{}

// runMemo returns experiment id's memoized runs at Jobs 1 and Jobs 4. Both
// are computed on first use, concurrently: they are independent for the same
// reason the Runner's jobs are, and overlapping the single-threaded run with
// the wide one is what keeps this suite's wall time down.
func runMemo(t *testing.T, id string) (seq, par registryRun) {
	t.Helper()
	runs, ok := memo[id]
	if !ok {
		exps, err := Lookup(id)
		if err != nil || len(exps) != 1 {
			t.Fatalf("Lookup(%q) = %d experiments, %v", id, len(exps), err)
		}
		var wg sync.WaitGroup
		for i, jobs := range []int{1, 4} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := testOptions(id, jobs)
				o.Telemetry = NewTelemetry()
				res, err := exps[0].Run(o)
				if err != nil {
					t.Errorf("%s at Jobs %d: %v", id, jobs, err)
				}
				runs[i] = registryRun{res, o.Telemetry.RenderTimelines() + o.Telemetry.CSV()}
			}()
		}
		wg.Wait()
		memo[id] = runs
	}
	return runs[0], runs[1]
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
// be byte-identical whether its cluster runs execute sequentially or on four
// workers.
func TestRegistryDeterministicAcrossJobs(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			switch {
			case e.ID == "check":
				// Its text is a function of the fig2/fig4/fig6/fig7 rows
				// above and its fan-out is RunAll (runner_test.go); running
				// the nine claims twice would cost more than every other
				// row together.
				t.Skip("composed of rows already compared")
			case testing.Short() && (e.ID == "fig7" || e.ID == "fig8"):
				t.Skip("sweep is slow")
			}
			seq, par := runMemo(t, e.ID)
			if seq.Text != par.Text {
				t.Errorf("text differs between -jobs 1 and -jobs 4:\n%s\n---\n%s", seq.Text, par.Text)
			}
			if seq.CSV != par.CSV {
				t.Errorf("CSV differs between -jobs 1 and -jobs 4:\n%s\n---\n%s", seq.CSV, par.CSV)
			}
			if seq.telemetry != par.telemetry {
				t.Error("telemetry differs between -jobs 1 and -jobs 4")
			}
			if seq.Text == "" || seq.CSV == "" {
				t.Error("empty output")
			}
		})
	}
	// Outcomes may never depend on the scanner's shard count either.
	t.Run("fig2-ksm-shards", func(t *testing.T) {
		run := func(shards int) Result {
			o := testOptions("fig2", 1)
			o.KSMShards = shards
			exps, _ := Lookup("fig2")
			res, _ := exps[0].Run(o)
			return res
		}
		if one, four := run(1), run(4); one.Text != four.Text || one.CSV != four.CSV {
			t.Errorf("fig2 differs between 1 and 4 KSM shards:\n%s\n---\n%s", one.Text, four.Text)
		}
	})
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
	o := Options{Scale: 32, Seed: 9, Quick: true, Telemetry: NewTelemetry(), Knobs: k}
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
	ok := Options{Scale: 64, Jobs: 8, DCHosts: 4, NetGbps: 2.5,
		Knobs: Knobs{THPPolicy: thp.PolicyAlways, THPKSMSplit: true, THPMaxPtesNone: 8, TLBEntries: 64, KSMShards: 4}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid Options rejected: %v", err)
	}
	for _, tc := range []struct {
		want string // substring naming the offending flag
		o    Options
	}{
		{"-scale", Options{Scale: -4}},
		{"-jobs", Options{Jobs: -1}},
		{"-thp-max-ptes-none", Options{Knobs: Knobs{THPMaxPtesNone: -1}}},
		{"-tlb-entries", Options{Knobs: Knobs{TLBEntries: -1}}},
		{"-ksm-shards", Options{Knobs: Knobs{KSMShards: -2}}},
		{"-hosts", Options{DCHosts: -3}},
		{"-net-gbps", Options{NetGbps: -0.5}},
		{"-thp-ksm-split", Options{Knobs: Knobs{THPPolicy: thp.PolicyFHPM, THPKSMSplit: true}}},
	} {
		err := tc.o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: Validate() = %v, want a one-line error naming it", tc.want, err)
		}
	}
}

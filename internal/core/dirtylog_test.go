package core

import (
	"testing"

	"repro/internal/workload"
)

// TestDirtyLogSweepQualitativeAndDeterministic reads the memoized dirtylog
// sweep (its byte-identity across -jobs widths is that row of
// TestRegistryDeterministicAcrossJobs): the rows must show the tentpole claim
// — the linear scanner's converged cost tracks registered pages while
// incremental mode's tracks churn, without giving up the merges.
func TestDirtyLogSweepQualitativeAndDeterministic(t *testing.T) {
	seq := figureOf[DirtyLogFigure](t, "dirtylog")

	row := func(guests, churn int, mode string) DirtyLogRow {
		for _, r := range seq.Rows {
			if r.Guests == guests && r.ChurnPct == churn && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("no row for %d guests, churn %d%%, mode %s", guests, churn, mode)
		return DirtyLogRow{}
	}
	for _, guests := range []int{2, 4} {
		for _, churn := range []int{0, 2, 8} {
			full := row(guests, churn, "full")
			inc := row(guests, churn, "incremental")
			// Full mode never builds rings, so the ring mechanics are silent.
			if full.DirtyDrained != 0 || full.RingOverflows != 0 || full.IncrementalRounds != 0 {
				t.Fatalf("full row shows ring activity: %+v", full)
			}
			if inc.IncrementalRounds == 0 {
				t.Fatalf("incremental row never entered incremental mode: %+v", inc)
			}
			if inc.ScanPerInterval >= full.ScanPerInterval {
				t.Fatalf("incremental scanned %.0f pages/interval, full %.0f (%d guests, %d%% churn)",
					inc.ScanPerInterval, full.ScanPerInterval, guests, churn)
			}
			// Incremental mode must keep the sharing the linear scanner found.
			if inc.SharingMB < 0.9*full.SharingMB {
				t.Fatalf("incremental sharing %.1f MB << full %.1f MB (%d guests, %d%% churn)",
					inc.SharingMB, full.SharingMB, guests, churn)
			}
		}
		// The headline ratio: on an idle cluster the incremental scanner is
		// at least 5x cheaper than the linear scanner's treadmill.
		idleFull := row(guests, 0, "full")
		idleInc := row(guests, 0, "incremental")
		if idleInc.ScanPerInterval*5 > idleFull.ScanPerInterval {
			t.Fatalf("idle rescan reduction < 5x: full %.0f vs incremental %.0f pages/interval",
				idleFull.ScanPerInterval, idleInc.ScanPerInterval)
		}
		// Churn feeds the incremental cost: more churn, more rescans.
		if row(guests, 8, "incremental").ScanPerInterval <= row(guests, 0, "incremental").ScanPerInterval {
			t.Fatal("incremental cost did not grow with churn")
		}
	}
}

// TestIncrementalScanOffLeavesClusterUntouched is the compatibility contract:
// without the flag no rings are built and the scanner stays linear.
func TestIncrementalScanOffLeavesClusterUntouched(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale:        testScale,
		Specs:        []workload.Spec{workload.DayTrader()},
		NumVMs:       2,
		SteadyRounds: 5,
	})
	c.Run()
	if c.Host.DirtyLogEnabled() {
		t.Fatal("dirty logging enabled without the flag")
	}
	st := c.Scanner.Stats()
	if st.IncrementalRounds != 0 || st.IncrementalScanned != 0 || st.DirtyDrained != 0 {
		t.Fatalf("incremental machinery ran with the flag off: %+v", st)
	}
}

// TestIncrementalScanOptionAppliesToPaperExperiments checks the -incremental
// flag path: Fig2 with the option on must run deterministically and with the
// scanner actually in incremental mode by the end of the steady phase.
func TestIncrementalScanOptionAppliesToPaperExperiments(t *testing.T) {
	o := Options{Scale: testScale, Quick: true, Knobs: Knobs{IncrementalScan: true}}
	memA, _ := Fig2(o)
	memB, _ := Fig2(o)
	if RenderMemFigure(memA) != RenderMemFigure(memB) {
		t.Fatal("Fig2 under incremental scan is not deterministic")
	}
	c := dayTraderCluster(o, false)
	if !c.Host.DirtyLogEnabled() {
		t.Fatal("IncrementalScan option did not reach the figure's host config")
	}
	c.Run()
	if c.Scanner.Stats().IncrementalRounds == 0 {
		t.Fatal("figure scanner never entered incremental mode")
	}
}

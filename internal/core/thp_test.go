package core

import (
	"testing"

	"repro/internal/thp"
	"repro/internal/workload"
)

// TestTHPTradeoffQualitativeAndDeterministic reads the memoized tradeoff
// sweep (its bytes are that row of the registry golden,
// TestRegistryDeterministicAcrossJobs): the rows must show the
// paper-extension tradeoff — `always` buys TLB reach by forgoing KSM sharing,
// `ksm-split` buys the sharing back.
func TestTHPTradeoffQualitativeAndDeterministic(t *testing.T) {
	fig := figureOf[THPFigure](t, "thp-tradeoff")

	row := func(guests int, policy string) THPRow {
		for _, r := range fig.Rows {
			if r.Guests == guests && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("no row for %d guests, policy %s", guests, policy)
		return THPRow{}
	}
	for _, guests := range []int{2, 4} {
		never := row(guests, "never")
		always := row(guests, "always")
		split := row(guests, "ksm-split")
		if never.HugeMB != 0 || never.Collapses != 0 || never.HugeCoveragePct != 0 {
			t.Fatalf("never row has huge pages: %+v", never)
		}
		if always.HugeMB <= never.HugeMB || always.HugeCoveragePct <= 0 {
			t.Fatalf("always gained no huge coverage: %+v", always)
		}
		if always.TLBReachMB <= never.TLBReachMB {
			t.Fatalf("always did not raise TLB reach: %.1f vs %.1f",
				always.TLBReachMB, never.TLBReachMB)
		}
		if always.SharingPages >= never.SharingPages {
			t.Fatalf("always did not lose KSM sharing: %d vs %d",
				always.SharingPages, never.SharingPages)
		}
		if always.KSMSkips == 0 {
			t.Fatal("always row counted no KSM huge skips")
		}
		if min := int(0.8 * float64(never.SharingPages)); split.SharingPages < min {
			t.Fatalf("ksm-split recovered %d sharing pages, want >= %d (80%% of never's %d)",
				split.SharingPages, min, never.SharingPages)
		}
		if split.Splits == 0 {
			t.Fatal("ksm-split row shows no splits")
		}

		// fhpm must land on the Pareto frontier: it matches ksm-split's
		// sharing (carving the same duplicates, minus only the uncarvable
		// head subpages) while keeping the rest of each block huge, so its
		// TLB reach must be strictly higher; and unlike plain always it
		// actually shares pages.
		fhpm := row(guests, "fhpm")
		if fhpm.PartialSplits == 0 {
			t.Fatal("fhpm row shows no partial splits")
		}
		if fhpm.Splits != 0 {
			t.Fatalf("fhpm dissolved %d whole blocks", fhpm.Splits)
		}
		if min := 0.95 * split.SharingMB; fhpm.SharingMB < min {
			t.Fatalf("fhpm sharing %.1f MB below 95%% of ksm-split's %.1f MB",
				fhpm.SharingMB, split.SharingMB)
		}
		if fhpm.TLBReachMB <= split.TLBReachMB {
			t.Fatalf("fhpm TLB reach %.1f MB not above ksm-split's %.1f MB at matched sharing",
				fhpm.TLBReachMB, split.TLBReachMB)
		}
		if fhpm.SharingPages <= always.SharingPages {
			t.Fatalf("fhpm shares %d pages, no more than plain always' %d",
				fhpm.SharingPages, always.SharingPages)
		}
		if fhpm.HugeMB <= never.HugeMB {
			t.Fatalf("fhpm kept no huge coverage: %+v", fhpm)
		}
	}
}

// TestTHPOffLeavesClusterUntouched is the compatibility contract: the default
// policy builds no daemon, allocates no huge frames, and the existing
// scenarios behave exactly as before the subsystem existed.
func TestTHPOffLeavesClusterUntouched(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale:        testScale,
		Specs:        []workload.Spec{workload.DayTrader()},
		NumVMs:       2,
		SteadyRounds: 5,
	})
	c.Run()
	if c.THP != nil {
		t.Fatal("daemon built under the default policy")
	}
	if c.Host.Phys().HugeFrames() != 0 || c.Host.Stats().Collapses != 0 {
		t.Fatal("huge frames allocated with THP off")
	}
}

// TestBuildClusterRejectsSplitWithoutAlways: KSM's whole-block split
// applies only under thp.PolicyAlways, so a config pairing THPKSMSplit with
// any other policy must not build, whether or not Options.Validate saw it.
func TestBuildClusterRejectsSplitWithoutAlways(t *testing.T) {
	for _, pol := range []thp.Policy{thp.PolicyNever, thp.PolicyFHPM} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("THPKSMSplit under %v built a cluster", pol)
				}
			}()
			BuildCluster(ClusterConfig{Scale: testScale, Specs: []workload.Spec{workload.DayTrader()}, NumVMs: 1,
				Knobs: Knobs{THPPolicy: pol, THPKSMSplit: true}})
		}()
	}
}

// TestTHPPolicyAppliesToPaperExperiments checks the -thp flag path: Fig2
// under `always` must run with a live daemon and end with huge coverage,
// while staying deterministic for a fixed seed.
func TestTHPPolicyAppliesToPaperExperiments(t *testing.T) {
	o := Options{Scale: testScale, Quick: true, Knobs: Knobs{THPPolicy: thp.PolicyAlways}}
	memA, _ := Fig2(o)
	memB, _ := Fig2(o)
	if RenderMemFigure(memA) != RenderMemFigure(memB) {
		t.Fatal("Fig2 under THP always is not deterministic")
	}
	if off := runMemo(t, "fig2"); off.Text == RenderMemFigure(memA)+"\n" {
		t.Fatal("THP always left Fig2 untouched; flag not threaded")
	}
}

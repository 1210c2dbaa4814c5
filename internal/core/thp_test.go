package core

import (
	"strings"
	"testing"

	"repro/internal/thp"
	"repro/internal/workload"
)

// TestTHPTradeoffQualitativeAndDeterministic reads the memoized tradeoff
// sweep (its byte-identity across -jobs widths is that row of
// TestRegistryDeterministicAcrossJobs): the rows must show the
// paper-extension tradeoff — `always` buys TLB reach by forgoing KSM sharing,
// `ksm-split` buys the sharing back.
func TestTHPTradeoffQualitativeAndDeterministic(t *testing.T) {
	seq := figureOf[THPFigure](t, "thp-tradeoff")

	row := func(guests int, policy string) THPRow {
		for _, r := range seq.Rows {
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

// TestTHPTradeoffPinned holds the tradeoff sweep's CSV at test scale: the
// never, always, ksm-split (whole-block split) and fhpm (per-subpage split)
// rows at both guest counts. Any row labelled madvise is left out of the
// comparison; the policy equalled always on guest RAM and is not modelled.
func TestTHPTradeoffPinned(t *testing.T) {
	seq, _ := runMemo(t, "thp-tradeoff")
	const want = "guests,policy,huge_mb,huge_coverage_pct,tlb_reach_mb,ksm_saving_mb,sharing_pages,collapses,splits,partial_splits,reabsorbs,ksm_skips\n" +
		"2,never,0.0,0.0,192.0,289.3,3044,0,0,0,0,0\n" +
		"2,always,1716.0,87.9,1566.4,4.1,23,18,0,0,0,242058\n" +
		"2,ksm-split,480.0,28.8,269.4,301.3,3108,17,12,0,0,0\n" +
		"2,fhpm,1110.0,66.6,570.9,300.4,3098,17,0,2844,1,148\n" +
		"4,never,0.0,0.0,192.0,860.4,6100,0,0,0,0,0\n" +
		"4,always,3619.3,92.7,2575.3,4.1,23,38,0,0,0,273392\n" +
		"4,ksm-split,1056.0,34.7,293.5,889.1,6253,38,27,0,0,0\n" +
		"4,fhpm,2533.9,83.1,1120.4,886.7,6237,38,0,6211,5,215\n"
	var got strings.Builder
	for _, line := range strings.SplitAfter(seq.CSV, "\n") {
		if !strings.Contains(line, ",madvise,") {
			got.WriteString(line)
		}
	}
	if got.String() != want {
		t.Errorf("thp-tradeoff csv:\n%s\nwant:\n%s", got.String(), want)
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
	if off, _ := runMemo(t, "fig2"); off.Text == RenderMemFigure(memA)+"\n" {
		t.Fatal("THP always left Fig2 untouched; flag not threaded")
	}
}

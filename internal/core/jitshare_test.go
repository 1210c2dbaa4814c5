package core

import (
	"testing"

	"repro/internal/jvm"
	"repro/internal/workload"
)

// TestJITShareSweepQualitativeAndDeterministic reads the memoized jitshare
// sweep (its byte-identity across -jobs widths is that row of
// TestRegistryDeterministicAcrossJobs): the rows must show the tentpole claim
// — the code area goes from unshareable (the paper's result) to substantially
// shared with PIC bodies, decaying from warm to end as re-JITs break the
// merges.
func TestJITShareSweepQualitativeAndDeterministic(t *testing.T) {
	seq := figureOf[JITShareFigure](t, "jitshare")

	row := func(wl, mode string) JITShareRow {
		for _, r := range seq.Rows {
			if r.Workload == wl && r.Mode == mode {
				return r
			}
		}
		t.Fatalf("no row for %s mode=%s", wl, mode)
		return JITShareRow{}
	}
	for _, wl := range []string{"daytrader", "tuscany"} {
		off := row(wl, "off")
		pic := row(wl, "pic")
		// Off is the paper's measured behaviour: no archive machinery at
		// all, and essentially nothing in the code area shares.
		if off.ArchivePages != 0 || off.ArchivedMethods != 0 || off.ReJITs != 0 ||
			off.COWBroken != 0 || off.MergedWarm != 0 || off.MergedEnd != 0 {
			t.Fatalf("off row shows archive activity: %+v", off)
		}
		if off.StubMappedMB != 0 {
			t.Fatalf("off row maps %f MB of profile stubs", off.StubMappedMB)
		}
		if off.RatioEndPct > 1 {
			t.Fatalf("%s: %.1f%% of private JIT code shared without the archive", wl, off.RatioEndPct)
		}
		// PIC mode: real sharing after warm-up...
		if pic.RatioWarmPct < 10 {
			t.Fatalf("%s: warm code-sharing ratio only %.1f%% with the archive", wl, pic.RatioWarmPct)
		}
		if pic.ArchivedMethods == 0 || pic.MergedWarm == 0 {
			t.Fatalf("pic row never populated or merged the archive: %+v", pic)
		}
		// ...that decays under steady-state warming but does not vanish.
		if pic.RatioEndPct >= pic.RatioWarmPct {
			t.Fatalf("%s: sharing did not decay (warm %.1f%%, end %.1f%%)",
				wl, pic.RatioWarmPct, pic.RatioEndPct)
		}
		if pic.RatioEndPct <= 0 {
			t.Fatalf("%s: sharing decayed to nothing", wl)
		}
		if pic.ReJITs == 0 || pic.COWBroken == 0 {
			t.Fatalf("pic row decayed without re-JIT COW breaks: %+v", pic)
		}
		// The profile stubs exist and stay private — the point of the split.
		if pic.StubMappedMB <= 0 {
			t.Fatalf("pic row has no profile stubs: %+v", pic)
		}
		if pic.StubSharedMB > 0.2*pic.StubMappedMB {
			t.Fatalf("%s: %.2f of %.2f stub MB shared; stubs must stay per-process",
				wl, pic.StubSharedMB, pic.StubMappedMB)
		}
	}
}

// TestJITShareFigureSplitsJITData: with the archive on, the Java breakdown
// figure grows a "JIT data stubs" category after the code cache; with it
// off, the category list is exactly the baseline — figures stay
// byte-compatible with the seed.
func TestJITShareFigureSplitsJITData(t *testing.T) {
	build := func(share bool) JavaFigure {
		c := BuildCluster(ClusterConfig{
			Scale:         testScale,
			Specs:         []workload.Spec{workload.DayTrader()},
			NumVMs:        1,
			SharedClasses: true,
			Knobs:         Knobs{JITShare: share},
			SteadyRounds:  5,
		})
		c.RunWarmup()
		return javaFigureFrom("fig-t", "t", c.Analyze(), c.Cfg.Scale, nil)
	}

	catsOf := func(f JavaFigure) []string {
		var out []string
		for _, cu := range f.Bars[0].Cats {
			out = append(out, cu.Name)
		}
		return out
	}

	off := catsOf(build(false))
	if len(off) != len(jvm.Categories()) {
		t.Fatalf("flag-off figure has %d categories, want the baseline %d: %v",
			len(off), len(jvm.Categories()), off)
	}
	for _, c := range off {
		if c == jvm.CatJITData {
			t.Fatal("flag-off figure grew a JIT data row")
		}
	}

	on := catsOf(build(true))
	if len(on) != len(jvm.Categories())+1 {
		t.Fatalf("flag-on figure has %d categories, want %d: %v",
			len(on), len(jvm.Categories())+1, on)
	}
	for i, c := range on {
		if c == jvm.CatJITData {
			if i == 0 || on[i-1] != jvm.CatJITCode {
				t.Fatalf("JIT data row not adjacent to the code cache: %v", on)
			}
			return
		}
	}
	t.Fatalf("flag-on figure missing %q: %v", jvm.CatJITData, on)
}

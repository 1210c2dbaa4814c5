package core

import "testing"

func TestClaimsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Fatalf("malformed claim %+v", c)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate claim id %q", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 16 {
		t.Fatalf("claim suite too small: %d", len(seen))
	}
}

// TestClaimsHoldAtTestScale evaluates the whole suite at test scale. The
// factual figures come from the memoized registry runs, so only the
// counterfactual cells run here.
func TestClaimsHoldAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the quick fig7 sweep")
	}
	f := &claimFigures{
		fig2:  figureOf[MemFigure](t, "fig2"),
		fig4:  figureOf[MemFigure](t, "fig4"),
		fig3a: figureOf[JavaFigure](t, "fig3a"),
		fig3b: figureOf[JavaFigure](t, "fig3b"),
		fig3c: figureOf[JavaFigure](t, "fig3c"),
		fig5a: figureOf[JavaFigure](t, "fig5a"),
		fig5b: figureOf[JavaFigure](t, "fig5b"),
		fig5c: figureOf[JavaFigure](t, "fig5c"),
		fig6:  figureOf[PowerFigure](t, "fig6"),
		fig7:  figureOf[SweepFigure](t, "fig7"),
	}
	_, counterfactual := claimCells(testOptions("check", 2), f)
	RunAll(NewRunner(2), counterfactual)
	if res, ok := evalClaims(f); !ok {
		t.Fatalf("claims failed at test scale:\n%s", res.Text)
	}
}

// TestRunClaimsBuildsEachClusterOnce runs the suite end to end at the
// coarsest scale and counts the clusters it builds by their telemetry
// labels: each distinct cell once, however many claims read it.
func TestRunClaimsBuildsEachClusterOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 8-VM sweep point")
	}
	o := Options{Scale: maxScale, Quick: true, Jobs: 2, Telemetry: NewTelemetry()}
	if res, ok := RunClaims(o); !ok {
		t.Fatalf("claims failed at scale %d:\n%s", maxScale, res.Text)
	}
	built := map[string]int{}
	for _, e := range o.Telemetry.Entries() {
		built[e.Label]++
	}
	want := []string{
		"daytrader x4 shared=false", "daytrader x4 shared=true",
		"mixed x3 shared=false", "mixed x3 shared=true",
		"tuscany x3 shared=false", "tuscany x3 shared=true",
		"fig7 n=8 shared=false rep=1", "fig7 n=8 shared=true rep=1",
		"daytrader x4 shared=true per-vm-layout", "daytrader x4 shared=false nio-salt",
	}
	for _, label := range want {
		if built[label] != 1 {
			t.Errorf("%q built %d times, want once", label, built[label])
		}
	}
	if len(built) != len(want) {
		t.Errorf("built %d distinct clusters, want %d: %v", len(built), len(want), built)
	}
}

// holdClaims evaluates the named claims against f, which needs only the
// figures those claims read, and fails on any that does not hold.
func holdClaims(t *testing.T, f *claimFigures, ids ...string) {
	t.Helper()
	byID := map[string]Claim{}
	for _, c := range Claims() {
		byID[c.ID] = c
	}
	for _, id := range ids {
		c, ok := byID[id]
		if !ok {
			t.Fatalf("no claim %q", id)
		}
		if detail, held := c.Check(f); !held {
			t.Errorf("%s: %s", id, detail)
		}
	}
}

// The per-figure tests below hold each breakdown figure's claims on the
// memoized registry runs. The bounds live in the claims alone.

func TestFig2BaselineShape(t *testing.T) {
	f := &claimFigures{fig2: figureOf[MemFigure](t, "fig2"), fig3a: figureOf[JavaFigure](t, "fig3a")}
	holdClaims(t, f, "java-dominates", "kernel-half-shared", "baseline-classmeta-unshared",
		"baseline-heap-unshared", "code-area-shared", "jit-code-unshared")
}

func TestFig4PreloadShape(t *testing.T) {
	f := &claimFigures{
		fig2:  figureOf[MemFigure](t, "fig2"),
		fig4:  figureOf[MemFigure](t, "fig4"),
		fig5a: figureOf[JavaFigure](t, "fig5a"),
	}
	holdClaims(t, f, "preload-classmeta-shared", "preload-reduces-total", "preload-grows-savings")
}

func TestFig3bAnd5bShapes(t *testing.T) {
	f := &claimFigures{fig3b: figureOf[JavaFigure](t, "fig3b"), fig5b: figureOf[JavaFigure](t, "fig5b")}
	holdClaims(t, f, "mixed-baseline-unshared", "gc-policy-independent")
}

func TestFig3cTuscanyShape(t *testing.T) {
	holdClaims(t, &claimFigures{fig3c: figureOf[JavaFigure](t, "fig3c")}, "tuscany-baseline-unshared")
}

func TestFig5cTuscanyPreload(t *testing.T) {
	holdClaims(t, &claimFigures{fig5c: figureOf[JavaFigure](t, "fig5c")}, "tuscany-preload-shared")
}

func TestFig6PowerDelta(t *testing.T) {
	holdClaims(t, &claimFigures{fig6: figureOf[PowerFigure](t, "fig6")}, "powervm-transfer")
}

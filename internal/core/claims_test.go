package core

import (
	"strings"
	"testing"

	"repro/internal/jvm"
)

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

// TestClaimsHoldAtTestScale evaluates the whole suite at test scale: the
// memoized check row, whose factual cells the registry rows above it share.
func TestClaimsHoldAtTestScale(t *testing.T) {
	if seq, _ := runMemo(t, "check"); strings.Contains(seq.Text, "[FAIL]") {
		t.Fatalf("claims failed at test scale:\n%s", seq.Text)
	}
}

// claimNamed returns the claim with the given id.
func claimNamed(t *testing.T, id string) Claim {
	t.Helper()
	for _, c := range Claims() {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("no claim %q", id)
	return Claim{}
}

// holdClaims evaluates the named claims against f, which needs only the
// figures those claims read, and fails on any that does not hold.
func holdClaims(t *testing.T, f *claimFigures, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if detail, held := claimNamed(t, id).Check(f); !held {
			t.Errorf("%s: %s", id, detail)
		}
	}
}

// TestGCPolicyClaimReadsOwnerFromPIDs evaluates gc-policy-independent on the
// class-metadata rows of quick fig5b at seed 1, where SPECjEnterprise has the
// smallest PID and so owns the merged frames: the claim holds. Were the owner
// to share more than 60 % itself, it must fail.
func TestGCPolicyClaimReadsOwnerFromPIDs(t *testing.T) {
	bar := func(label string, pid int, mapped, shared float64) JavaBar {
		return JavaBar{Label: label, PID: pid, Cats: []CatRow{{jvm.CatClassMeta, mapped, shared}}}
	}
	f := &claimFigures{fig5b: JavaFigure{Bars: []JavaBar{
		bar("DayTrader", 492, 127.0, 111.3), bar("SPECjEnterprise", 380, 131.4, 0.3), bar("TPC-W", 392, 128.2, 111.3),
	}}}
	c := claimNamed(t, "gc-policy-independent")
	if detail, held := c.Check(f); !held || !strings.Contains(detail, "SPECjEnterprise (owner) 0.2%") {
		t.Errorf("seed 1's fig5b: held=%v, %s; want a pass naming SPECjEnterprise the owner", held, detail)
	}
	f.fig5b.Bars[1].Cats[0].SharedMB = 80
	if detail, held := c.Check(f); held {
		t.Errorf("owner sharing 61%% passed: %s", detail)
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

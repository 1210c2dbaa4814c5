package memanalysis

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/jvm"
	"repro/internal/mem"
)

// TestAttributionPinned pins every reader of the analysis on both fixtures,
// so a change to how the attribution is held cannot move what it reports.
// PSS is rounded to whole bytes: its float sum depends on frame order.
func TestAttributionPinned(t *testing.T) {
	for _, tc := range []struct {
		shared                   bool
		sharedFrames, huge, base int
		savings, reach           int64
		digest                   string
	}{
		{false, 629, 0, 4272, 5533696, 4194304, "126ab955544f3435a5c8152c2efba258730fc0d3ed0ccad6a24e59044f4d620a"},
		{true, 698, 0, 4137, 6098944, 4194304, "f311e7928025c801266e1ebf98d7bee2eef3c25151fd22a2be8725837ea8f0f5"},
	} {
		c := buildCluster(t, 3, tc.shared)
		c.scan(3)
		a := Analyze(c.host, c.kernels)
		huge, base := a.FrameSizeCounts()
		got := []any{a.SharedFrameCount(), huge, base, a.TotalSavingsBytes(), a.EstimatedTLBReachBytes()}
		want := []any{tc.sharedFrames, tc.huge, tc.base, tc.savings, tc.reach}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("shared=%v: shared frames, huge, base, savings, reach = %v, want %v", tc.shared, got, want)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%+v\n%+v\n", a.VMBreakdowns(), a.JavaBreakdowns())
		for _, k := range c.kernels {
			for _, p := range k.Processes() {
				fmt.Fprintf(&b, "%s pid %d: owned %d pss %.0f\n", p.Name, p.PID, a.OwnerOrientedBytes(p), math.Round(a.PSS(p)))
			}
		}
		if d := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); d != tc.digest {
			t.Errorf("shared=%v: digest %s, want %s:\n%s", tc.shared, d, tc.digest, b.String())
		}
	}
}

// TestAnalysisVerify: every fixture keeps the four attribution laws, and a
// corrupted breakdown or analysis fails Verify naming the law it breaks.
func TestAnalysisVerify(t *testing.T) {
	var a *Analysis
	for _, fx := range []struct {
		vms    int
		shared bool
	}{{3, false}, {3, true}, {2, true}} {
		c := buildCluster(t, fx.vms, fx.shared)
		c.scan(3)
		a = Analyze(c.host, c.kernels)
		if err := a.Verify(); err != nil {
			t.Fatalf("%d VMs, shared=%v: %v", fx.vms, fx.shared, err)
		}
	}
	for _, tc := range []struct {
		law     string
		corrupt func(vms []VMBreakdown, javas []JavaBreakdown)
	}{
		{"partition", func(vms []VMBreakdown, _ []JavaBreakdown) { vms[1].KernelBytes += pg }},
		{"owned+shared", func(_ []VMBreakdown, javas []JavaBreakdown) {
			cu := javas[0].ByCat[jvm.CatHeap]
			cu.OwnedBytes, cu.SharedBytes = cu.OwnedBytes+pg, cu.SharedBytes-pg
			javas[0].ByCat[jvm.CatHeap] = cu
		}},
		{"java-owned", func(vms []VMBreakdown, _ []JavaBreakdown) {
			vms[0].JavaBytes, vms[0].KernelBytes = vms[0].JavaBytes+pg, vms[0].KernelBytes-pg
		}},
	} {
		vms, javas := a.VMBreakdowns(), a.JavaBreakdowns()
		tc.corrupt(vms, javas)
		if err := checkBreakdowns(a.TotalGuestBytes(), vms, javas); err == nil || !strings.Contains(err.Error(), tc.law+":") {
			t.Errorf("%s corrupted: err = %v", tc.law, err)
		}
	}
	// An analysis read against a host whose frames are all free.
	a.phys = mem.NewPhysMem(int64(a.phys.TotalFrames())*pg, pg)
	if err := a.Verify(); err == nil || !strings.Contains(err.Error(), "allocated:") {
		t.Errorf("frames freed under the analysis: err = %v", err)
	}
}

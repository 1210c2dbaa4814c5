package tpsim

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/mem"
)

// bytesReader adapts a byte slice for ReadDump.
func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// The facade tests exercise the public API surface end to end at a small
// scale; the deep behavioural tests live with the internal packages.

func TestPublicAPISmallCluster(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale:         64,
		Specs:         []WorkloadSpec{Tuscany()},
		NumVMs:        2,
		SharedClasses: true,
		SteadyRounds:  10,
	})
	c.Run()
	a := c.Analyze()
	if a.TotalGuestBytes() == 0 {
		t.Fatal("no memory attributed")
	}
	if len(a.VMBreakdowns()) != 2 || len(a.JavaBreakdowns()) != 2 {
		t.Fatal("breakdown cardinality wrong")
	}
	perf := c.MeasurePerf(5)
	if len(perf) != 2 || Aggregate(perf) <= 0 {
		t.Fatalf("perf = %+v", perf)
	}
	if MeanScore(perf) <= 0 {
		t.Fatal("mean score zero")
	}
}

func TestPublicTablesAndSpecs(t *testing.T) {
	if !strings.Contains(Table3().String(), "Injection rate of 15") {
		t.Fatal("Table3 wrong")
	}
	for _, s := range []WorkloadSpec{DayTrader(), DayTraderPOWER(), SPECjEnterprise(), TPCW(), Tuscany()} {
		if s.Name == "" || s.GuestMemBytes == 0 || s.HeapBytes == 0 {
			t.Fatalf("bad spec %+v", s)
		}
	}
	if DefaultScale != 16 {
		t.Fatalf("DefaultScale = %d", DefaultScale)
	}
}

func TestPublicDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		c := BuildCluster(ClusterConfig{
			Scale:         64,
			Specs:         []WorkloadSpec{Tuscany()},
			NumVMs:        2,
			SharedClasses: true,
			BaseSeed:      Seed(42),
			SteadyRounds:  8,
		})
		c.Run()
		a := c.Analyze()
		return a.TotalGuestBytes(), a.TotalSavingsBytes()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, s1, t2, s2)
	}
	// A different seed changes layout details but not the qualitative state.
	c := BuildCluster(ClusterConfig{
		Scale: 64, Specs: []WorkloadSpec{Tuscany()}, NumVMs: 2,
		SharedClasses: true, BaseSeed: Seed(43), SteadyRounds: 8,
	})
	c.Run()
	if c.Analyze().TotalGuestBytes() == 0 {
		t.Fatal("other seed broke the run")
	}
	_ = mem.Seed(0) // keep the internal import meaningful for Seed alias
}

func TestRenderersExported(t *testing.T) {
	memF, javaF := Fig2(Options{Scale: 64, Quick: true})
	if !strings.Contains(RenderMemFigure(memF), "FIG2") {
		t.Fatal("mem renderer")
	}
	if !strings.Contains(RenderJavaFigure(javaF), "Class metadata") {
		t.Fatal("java renderer")
	}
}

func TestPublicDumpWorkflow(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale: 64, Specs: []WorkloadSpec{Tuscany()}, NumVMs: 2,
		SharedClasses: true, SteadyRounds: 5,
	})
	c.Run()
	d := CaptureDump(c)
	d2, err := ReadDump(bytesReader(d.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	off := AnalyzeDump(d2)
	live := c.Analyze()
	if off.TotalGuestBytes() != live.TotalGuestBytes() {
		t.Fatalf("offline %d != live %d", off.TotalGuestBytes(), live.TotalGuestBytes())
	}
}

package core

import (
	"errors"
	"fmt"

	"repro/internal/report"
)

// Result is one experiment's output in the forms tpsim prints — the
// rendered paper-style report, the CSV table behind it and, under
// Options.Telemetry, the timeline and metrics CSV sections of every cell it
// read — plus the typed figure the first two were rendered from (a
// MemFigure, a THPFigure, ...; the claim table for check).
type Result struct {
	Text       string
	CSV        string
	Figure     any
	Timelines  string
	MetricsCSV string
}

// Experiment is one row of the registry — everything the CLI, its usage text
// and the determinism tests know about an experiment id. Adding an
// experiment is adding a row.
type Experiment struct {
	ID      string
	Summary string
	// InAll marks the experiments the "all" id runs.
	InAll bool
	// run executes the experiment in an invocation (NewInvocation). A
	// non-nil error still carries the Result to print (check reports which
	// claims failed).
	run func(*invocation) (Result, error)
}

// tableRun adapts a configuration table.
func tableRun(table func() *report.Table) func(*invocation) (Result, error) {
	return func(*invocation) (Result, error) {
		t := table()
		return Result{Text: t.String() + "\n", CSV: t.CSV(), Figure: t}, nil
	}
}

// figureRun adapts an experiment function plus its renderer and CSV table.
func figureRun[F any](run func(*invocation) F, render func(F) string, table func(F) *report.Table) func(*invocation) (Result, error) {
	return func(inv *invocation) (Result, error) {
		f := run(inv)
		return Result{Text: render(f) + "\n", CSV: table(f).CSV(), Figure: f}, nil
	}
}

// checkRun evaluates the claim suite.
func checkRun(inv *invocation) (Result, error) {
	res, ok := runClaims(inv)
	if !ok {
		return res, errors.New("some claims failed")
	}
	return res, nil
}

// registry lists every experiment in print order.
var registry = []Experiment{
	{"table1", "Table I: the physical machines", true, tableRun(Table1)},
	{"table2", "Table II: the guest VM configuration", true, tableRun(Table2)},
	{"table3", "Table III: benchmark and JVM parameters", true, tableRun(Table3)},
	{"table4", "Table IV: the Java memory categories", true, tableRun(Table4)},
	{"fig2", "baseline 4x DayTrader: per-VM memory and TPS savings", true,
		figureRun(fig2, RenderMemFigure, MemFigureTable)},
	{"fig3a", "the fig2 run: per-JVM Java memory breakdown", true,
		figureRun(fig3a, RenderJavaFigure, JavaFigureTable)},
	{"fig3b", "DayTrader / SPECjEnterprise / TPC-W baseline breakdown", true,
		figureRun(fig3b, RenderJavaFigure, JavaFigureTable)},
	{"fig3c", "3x Tuscany bigbank baseline breakdown", true,
		figureRun(fig3c, RenderJavaFigure, JavaFigureTable)},
	{"fig4", "fig2 with the shared class cache copied to all VMs", true,
		figureRun(fig4, RenderMemFigure, MemFigureTable)},
	{"fig5a", "the fig4 run: per-JVM Java memory breakdown", true,
		figureRun(fig5a, RenderJavaFigure, JavaFigureTable)},
	{"fig5b", "fig3b with the shared class caches", true,
		figureRun(fig5b, RenderJavaFigure, JavaFigureTable)},
	{"fig5c", "fig3c with the shared class cache", true,
		figureRun(fig5c, RenderJavaFigure, JavaFigureTable)},
	{"fig6", "PowerVM: totals before/after sharing, +/- preloading", true,
		figureRun(fig6, RenderPowerFigure, PowerFigureTable)},
	{"fig7", "DayTrader throughput vs 1..9 guest VMs", true,
		figureRun(fig7, RenderSweepFigure, SweepFigureTable)},
	{"fig8", "SPECjEnterprise score vs 5..8 guest VMs", true,
		figureRun(fig8, RenderSweepFigure, SweepFigureTable)},
	{"thp-tradeoff", "THP policy sweep: huge-page coverage vs KSM sharing", true,
		figureRun(thpTradeoff, RenderTHPFigure, THPFigureTable)},
	{"dirtylog", "converged KSM rescan cost: linear vs dirty-ring incremental", false,
		figureRun(dirtyLogSweep, RenderDirtyLogFigure, DirtyLogFigureTable)},
	{"jitshare", "code-area sharing: private JIT output vs ShareJIT PIC archive", false,
		figureRun(jitShareSweep, RenderJITShareFigure, JITShareFigureTable)},
	{"chaos", "fault-injection sweep: kills/restarts, demand spikes, stalls", false,
		figureRun(chaos, RenderChaosFigure, ChaosFigureTable)},
	{"check", "evaluate every paper claim on quick runs (self-test)", false, checkRun},
}

// Experiments returns the registry in print order.
func Experiments() []Experiment { return registry }

// Lookup resolves a positional id: a registered experiment, or "all" for
// every InAll row.
func Lookup(id string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range registry {
		if e.ID == id || (id == "all" && e.InAll) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (see -h)", id)
	}
	return out, nil
}

package core

import (
	"errors"
	"fmt"

	"repro/internal/report"
)

// Result is one experiment's output in the two forms tpsim prints — the
// rendered paper-style report and the CSV table behind it — plus the typed
// figure both were rendered from (a MemFigure, a THPFigure, ...; nil for
// check).
type Result struct {
	Text   string
	CSV    string
	Figure any
}

// Experiment is one row of the registry — everything the CLI, its usage text
// and the determinism tests know about an experiment id. Adding an
// experiment is adding a row.
type Experiment struct {
	ID      string
	Summary string
	// InAll marks the experiments the "all" id runs.
	InAll bool
	// Run executes the experiment. A non-nil error still carries the Result
	// to print (check reports which claims failed).
	Run func(Options) (Result, error)
}

// tableRun adapts a configuration table.
func tableRun(table func() *report.Table) func(Options) (Result, error) {
	return func(Options) (Result, error) {
		t := table()
		return Result{Text: t.String() + "\n", CSV: t.CSV(), Figure: t}, nil
	}
}

// figureRun adapts an experiment function plus its renderer and CSV table.
func figureRun[F any](run func(Options) F, render func(F) string, table func(F) *report.Table) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		f := run(o)
		return Result{Text: render(f) + "\n", CSV: table(f).CSV(), Figure: f}, nil
	}
}

// memRun and javaRun pick one view of a run that yields both a per-VM and a
// per-JVM figure (fig2/fig3a share Fig2, fig4/fig5a share Fig4).
func memRun(run func(Options) (MemFigure, JavaFigure)) func(Options) (Result, error) {
	return figureRun(func(o Options) MemFigure { m, _ := run(o); return m }, RenderMemFigure, MemFigureTable)
}

func javaRun(run func(Options) (MemFigure, JavaFigure)) func(Options) (Result, error) {
	return figureRun(func(o Options) JavaFigure { _, j := run(o); return j }, RenderJavaFigure, JavaFigureTable)
}

// checkRun evaluates the claim suite. The claims share one Options value, so
// per-claim telemetry collection order would not be deterministic; the
// self-test output stays figure-only.
func checkRun(o Options) (Result, error) {
	o.Telemetry = nil
	out, ok := RunClaims(o)
	res := Result{Text: out, CSV: out}
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
	{"fig2", "baseline 4x DayTrader: per-VM memory and TPS savings", true, memRun(Fig2)},
	{"fig3a", "the fig2 run: per-JVM Java memory breakdown", true, javaRun(Fig2)},
	{"fig3b", "DayTrader / SPECjEnterprise / TPC-W baseline breakdown", true,
		figureRun(Fig3b, RenderJavaFigure, JavaFigureTable)},
	{"fig3c", "3x Tuscany bigbank baseline breakdown", true,
		figureRun(Fig3c, RenderJavaFigure, JavaFigureTable)},
	{"fig4", "fig2 with the shared class cache copied to all VMs", true, memRun(Fig4)},
	{"fig5a", "the fig4 run: per-JVM Java memory breakdown", true, javaRun(Fig4)},
	{"fig5b", "fig3b with the shared class caches", true,
		figureRun(Fig5b, RenderJavaFigure, JavaFigureTable)},
	{"fig5c", "fig3c with the shared class cache", true,
		figureRun(Fig5c, RenderJavaFigure, JavaFigureTable)},
	{"fig6", "PowerVM: totals before/after sharing, +/- preloading", true,
		figureRun(Fig6, RenderPowerFigure, PowerFigureTable)},
	{"fig7", "DayTrader throughput vs 1..9 guest VMs", true,
		figureRun(Fig7, RenderSweepFigure, SweepFigureTable)},
	{"fig8", "SPECjEnterprise score vs 5..8 guest VMs", true,
		figureRun(Fig8, RenderSweepFigure, SweepFigureTable)},
	{"thp-tradeoff", "THP policy sweep: huge-page coverage vs KSM sharing", true,
		figureRun(THPTradeoff, RenderTHPFigure, THPFigureTable)},
	{"dirtylog", "converged KSM rescan cost: linear vs dirty-ring incremental", false,
		figureRun(DirtyLogSweep, RenderDirtyLogFigure, DirtyLogFigureTable)},
	{"jitshare", "code-area sharing: private JIT output vs ShareJIT PIC archive", false,
		figureRun(JITShareSweep, RenderJITShareFigure, JITShareFigureTable)},
	{"ksmshard", "sharded KSM scanning: identical outcomes at 1/2/4 shards", false,
		figureRun(KSMShardSweep, RenderKSMShardFigure, KSMShardFigureTable)},
	{"chaos", "fault-injection sweep: kills/restarts, demand spikes, stalls", false,
		figureRun(Chaos, RenderChaosFigure, ChaosFigureTable)},
	{"datacenter", "multi-host sweep: placement × migration protocol under faults", false,
		figureRun(Datacenter, RenderDatacenterFigure, DatacenterFigureTable)},
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

// Package tpsim reproduces "Increasing the Transparent Page Sharing in
// Java" (Ogata & Onodera, ISPASS 2013) as a deterministic simulation: a
// KVM-style host with KSM, guest Linux kernels, a J9-style JVM memory model
// with a shared class cache, the paper's four workloads, and the
// measurement methodology that attributes every host physical page frame.
//
// The package is a facade over the internal packages; it exposes everything
// needed to re-run the paper's experiments or to compose new scenarios:
//
//	fig, java := tpsim.Fig4(tpsim.Options{})   // the headline result
//	fmt.Print(tpsim.RenderMemFigure(fig))
//	fmt.Print(tpsim.RenderJavaFigure(java))
//
// or, for a custom scenario:
//
//	c := tpsim.BuildCluster(tpsim.ClusterConfig{
//	    Specs:         []tpsim.WorkloadSpec{tpsim.DayTrader()},
//	    NumVMs:        6,
//	    SharedClasses: true,
//	})
//	c.Run()
//	a := c.Analyze()
//
// All byte quantities in results are scaled back to paper units (see
// DESIGN.md on the memory scale). Every run is deterministic given
// Options.Seed.
package tpsim

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/thp"
	"repro/internal/workload"
)

// Options tunes an experiment run. The zero value reproduces the paper's
// configuration at the default 1/16 memory scale.
type Options = core.Options

// Seed is the deterministic randomization seed type.
type Seed = mem.Seed

// Experiment results.
type (
	// MemFigure is a per-VM physical memory breakdown (Fig. 2 / Fig. 4).
	MemFigure = core.MemFigure
	// JavaFigure is a per-JVM Table IV category breakdown (Fig. 3 / Fig. 5).
	JavaFigure = core.JavaFigure
	// SweepFigure is a VM-count throughput sweep (Fig. 7 / Fig. 8).
	SweepFigure = core.SweepFigure
	// PowerFigure is the PowerVM before/after comparison (Fig. 6).
	PowerFigure = core.PowerFigure
	// VMPerf is one guest's modelled steady-state performance.
	VMPerf = core.VMPerf
	// THPFigure is the THP-policy × guest-count tradeoff sweep.
	THPFigure = core.THPFigure
	// THPRow is one cell of a THPFigure.
	THPRow = core.THPRow
)

// Cluster scenario composition.
type (
	// ClusterConfig describes a custom KVM scenario.
	ClusterConfig = core.ClusterConfig
	// Knobs are the subsystem switches (THP, incremental scan, ShareJIT,
	// scanner shards, modeled TLB size) embedded in both Options and
	// ClusterConfig; set them in a literal as Knobs: tpsim.Knobs{...}.
	Knobs = core.Knobs
	// Cluster is a running scenario.
	Cluster = core.Cluster
	// WorkloadSpec is one benchmark configuration (Table III).
	WorkloadSpec = workload.Spec
	// Table is a renderable result table.
	Table = report.Table
)

// Paper experiments. Each function runs the corresponding figure's scenario
// end to end and returns paper-unit results.
var (
	// Fig2 runs the baseline 4×DayTrader breakdown; it returns the Fig. 2
	// VM-level figure and the Fig. 3(a) Java-level figure from the same run.
	Fig2 = core.Fig2
	// Fig3b is the DayTrader/SPECjEnterprise/TPC-W baseline breakdown.
	Fig3b = core.Fig3b
	// Fig3c is the 3×Tuscany baseline breakdown.
	Fig3c = core.Fig3c
	// Fig4 is Fig2's scenario with the shared class cache copied to every
	// VM; it returns Fig. 4 and Fig. 5(a).
	Fig4 = core.Fig4
	// Fig5b is Fig3b with per-application shared caches.
	Fig5b = core.Fig5b
	// Fig5c is Fig3c with the 25 MB Tuscany cache.
	Fig5c = core.Fig5c
	// Fig6 is the PowerVM experiment.
	Fig6 = core.Fig6
	// Fig7 sweeps DayTrader over 1-9 guest VMs.
	Fig7 = core.Fig7
	// Fig8 sweeps SPECjEnterprise 2010 over 5-8 guest VMs.
	Fig8 = core.Fig8
	// THPTradeoff sweeps huge-page policy against KSM sharing (extension).
	THPTradeoff = core.THPTradeoff

	// Table1 through Table4 render the paper's configuration tables.
	Table1 = core.Table1
	Table2 = core.Table2
	Table3 = core.Table3
	Table4 = core.Table4
)

// Workload constructors (Table III).
var (
	DayTrader       = workload.DayTrader
	DayTraderPOWER  = workload.DayTraderPOWER
	SPECjEnterprise = workload.SPECjEnterprise
	TPCW            = workload.TPCW
	Tuscany         = workload.Tuscany
)

// Scenario composition and measurement.
var (
	// BuildCluster assembles a custom scenario (guests deploy with the
	// scanner already running, as in the paper).
	BuildCluster = core.BuildCluster
	// Aggregate sums per-VM throughput; MeanScore averages it;
	// AnySLAViolated reports response-time SLA misses.
	Aggregate      = core.Aggregate
	MeanScore      = core.MeanScore
	AnySLAViolated = core.AnySLAViolated
)

// Renderers for paper-style text reports.
var (
	RenderMemFigure   = core.RenderMemFigure
	RenderJavaFigure  = core.RenderJavaFigure
	RenderSweepFigure = core.RenderSweepFigure
	RenderPowerFigure = core.RenderPowerFigure
	RenderTHPFigure   = core.RenderTHPFigure
)

// Transparent huge pages. THPPolicy selects the khugepaged collapse policy
// on ClusterConfig.THPPolicy / Options.THPPolicy; the zero value (never)
// keeps the subsystem off and every figure byte-identical to prior releases.
type THPPolicy = thp.Policy

// THP policy values and parsing (sysfs spellings: never|madvise|always).
const (
	THPNever   = thp.PolicyNever
	THPMadvise = thp.PolicyMadvise
	THPAlways  = thp.PolicyAlways
)

// ParseTHPPolicy converts a sysfs spelling into a THPPolicy.
var ParseTHPPolicy = thp.ParsePolicy

// Telemetry: time-series sampling of a running cluster. Enable with
// ClusterConfig.EnableMetrics (or Options.Telemetry for the paper
// experiments); the registry on Cluster.Metrics holds one ring-buffer
// series per gauge. Sampling is read-only and clock-driven, so results are
// bit-identical with it on or off.
type (
	// Metrics is a cluster's telemetry registry (Cluster.Metrics).
	Metrics = metrics.Registry
	// MetricsConfig tunes sampling cadence and series capacity.
	MetricsConfig = metrics.Config
	// Series is one bounded time series of samples.
	Series = metrics.Series
	// Sample is one (virtual time, value) observation.
	Sample = metrics.Sample
	// ConvergenceConfig tunes the flat-window convergence detector used by
	// Cluster.WaitConverged and ClusterConfig.AdaptiveWarmup.
	ConvergenceConfig = metrics.ConvergenceConfig
	// Telemetry collects the registries of fanned-out experiment runs in
	// submission order for post-run rendering.
	Telemetry = core.Telemetry
	// TelemetryEntry is one collected run inside a Telemetry.
	TelemetryEntry = core.TelemetryEntry
)

// Telemetry helpers.
var (
	// NewTelemetry creates an empty cross-run collector (Options.Telemetry).
	NewTelemetry = core.NewTelemetry
	// RenderTimeline renders one registry as an ASCII sparkline timeline.
	RenderTimeline = core.RenderTimeline
)

// DefaultScale is the default memory scale (all results are scaled back to
// paper units automatically).
const DefaultScale = core.DefaultScale

// Parallel experiment execution. Every Cluster owns its own clock and
// physical memory, so independent scenario runs fan out across a bounded
// worker pool; results come back in submission order, keeping rendered
// output identical to a sequential run. Options.Jobs routes the paper
// experiments (sweep points, error-bar repetitions, claim checks) through
// the same pool.
type (
	// Runner is a bounded worker pool for independent cluster runs.
	Runner = core.Runner
	// JobEvent reports job start/completion to a Runner progress callback.
	JobEvent = core.JobEvent
)

// NewRunner creates a runner with the given pool width (0 = GOMAXPROCS).
var NewRunner = core.NewRunner

// Job is one labelled unit of independent work for RunAll.
type Job[T any] struct {
	Label string
	Run   func() T
}

// RunAll executes jobs on the runner's pool and returns results in
// submission order. (A standalone generic helper: Go cannot alias the
// generic core type, so the facade converts.)
func RunAll[T any](r *Runner, jobs []Job[T]) []T {
	cj := make([]core.Job[T], len(jobs))
	for i, j := range jobs {
		cj[i] = core.Job[T]{Label: j.Label, Run: j.Run}
	}
	return core.RunAll(r, cj)
}

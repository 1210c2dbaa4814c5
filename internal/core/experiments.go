package core

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/memanalysis"
	"repro/internal/thp"
	"repro/internal/workload"
)

// SeedFromUint64 converts a raw integer into an experiment seed.
func SeedFromUint64(v uint64) mem.Seed { return mem.Seed(v) }

// Options tunes an experiment run.
type Options struct {
	// Scale overrides the memory scale (0 = DefaultScale).
	Scale int
	// Seed perturbs all randomization (error-bar repetitions change it).
	Seed mem.Seed
	// Quick shrinks steady-state length and sweep points for fast benches.
	Quick bool
	// Jobs bounds the worker pool every cell of an invocation runs on
	// (NewInvocation). 0 means runtime.GOMAXPROCS(0); 1 runs everything
	// sequentially inline. Results are collected in submission order, so
	// rendered output is identical at every width.
	Jobs int
	// Progress, when set, receives a JobEvent as each cell starts and
	// finishes (cmd/tpsim routes these to stderr).
	Progress func(JobEvent)
	// Telemetry enables metrics sampling on every cluster the experiment
	// builds (tpsim -timeline / -metrics-csv). Each cell renders its series
	// before its cluster is dropped, and NewInvocation's Result carries
	// them. Sampling is read-only, so figures are unchanged by it.
	Telemetry bool
	// Knobs are the subsystem switches applied to every cluster the
	// experiment builds (tpsim -thp, -thp-ksm-split, -incremental,
	// -jitshare). A sweep ignores only the knob that is its own axis.
	Knobs
	// ChaosSeed derives the chaos experiment's fault schedules (tpsim
	// -chaos-seed). Fixed seed ⇒ byte-identical sweep output at any Jobs
	// width. No other experiment reads it.
	ChaosSeed uint64
}

func (o Options) scale() int {
	if o.Scale == 0 {
		return DefaultScale
	}
	return o.Scale
}

// maxScale is the coarsest memory scale every registered experiment runs at:
// at -scale 80 a guest already runs out of memory. Under -jitshare the bound
// is maxJITShareScale: each tier-2 recompilation adds a body to the private
// code cache, bodies do not shrink with the scale and the re-JIT rate does
// not either, so at -scale 38 a quick fig7 guest runs out of memory; 32
// leaves a margin for other seeds and knobs.
const maxScale, maxJITShareScale = 64, 32

// Validate rejects option values the simulator would otherwise panic on or
// silently replace with a default. cmd/tpsim calls it once before anything
// runs.
func (o Options) Validate() error {
	for _, f := range []struct {
		flag string
		v    int
	}{
		{"-scale", o.Scale},
		{"-jobs", o.Jobs},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative (got %v; 0 selects the default)", f.flag, f.v)
		}
	}
	if o.Scale > maxScale {
		return fmt.Errorf("-scale must be in 0..%d (got %d; coarser scales run the guests out of memory)", maxScale, o.Scale)
	}
	if o.JITShare && o.scale() > maxJITShareScale {
		return fmt.Errorf("-jitshare needs -scale 0..%d (got %d; tier-2 recompilation runs coarser guests out of memory)", maxJITShareScale, o.Scale)
	}
	if o.THPKSMSplit && o.THPPolicy != thp.PolicyAlways {
		return fmt.Errorf("-thp-ksm-split needs -thp always (got -thp %v; never has no huge pages to split, fhpm splits per subpage itself)", o.THPPolicy)
	}
	return nil
}

// clusterConfig is the one place an Options becomes a ClusterConfig: scale,
// seed, Quick's shorter steady state, telemetry and every knob (one struct
// copy, so a new Knobs field reaches every experiment). A sweep sets its own
// axis on the result; nothing else may copy option fields by hand.
func (o Options) clusterConfig(specs []workload.Spec, n int, shared bool) ClusterConfig {
	cfg := ClusterConfig{
		Scale:         o.scale(),
		Specs:         specs,
		NumVMs:        n,
		SharedClasses: shared,
		Knobs:         o.Knobs,
		BaseSeed:      o.Seed,
		EnableMetrics: o.Telemetry,
	}
	if o.Quick {
		cfg.SteadyRounds = 15
	}
	return cfg
}

// cell is one independent unit of an experiment: it builds one cluster (or
// Fig. 6's host and scanner), measures it and returns plain values — nothing
// in a cellValue points into what it built. Its label is its key within an
// invocation: cells with equal labels have equal configs (runCells panics
// otherwise), and the label heads the cell's telemetry sections.
type cell struct {
	label string
	cfg   any // what the label keys beyond the invocation's options
	run   func() cellValue
}

// cellValue is what a cell leaves behind: its measured value, under
// telemetry its rendered timeline and metrics CSV sections, and the law its
// host broke, if one did (Cluster.Verify, verifyHost).
type cellValue struct {
	v                any
	timeline, series string
	err              error
}

// clusterCell is the cell that builds cfg's cluster, measures it and
// verifies it before the cluster is dropped.
func clusterCell[R any](label string, cfg ClusterConfig, measure func(*Cluster) R) cell {
	return cell{label, cfg, func() cellValue {
		c := BuildCluster(cfg)
		out := cellValue{v: measure(c)}
		if c.telemetry != nil {
			out.timeline = c.telemetry.timeline(label) + "\n"
			out.series = "# " + label + "\n" + c.telemetry.csv()
		}
		out.err = c.Verify()
		return out
	}}
}

// CellError is a cell whose host broke a law: an attribution law one of its
// analyses broke, or, when its run ended, a frame reference no live state
// explains or a scanner law (Cluster.Verify).
type CellError struct {
	Label string
	Err   error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %q: %v", e.Label, e.Err) }

// invocation is one run of tpsim: the options every experiment runs at, one
// pool of width Jobs, and the cells already run with their configs. Its
// experiments run one after another, each handing its cells to runCells, so
// no pool runs inside another and a cell that several experiments read
// (fig2 and fig3a, every figure check evaluates) runs once.
type invocation struct {
	o      Options
	runner *Runner
	memo   map[string]cellValue
	cfgs   map[string]any
	// read is the current experiment's cells in first-read order: the
	// telemetry sections its Result carries.
	read []string
	// dry enumerates cells without running them: runCells files each
	// cell's config under its label and returns zero values.
	dry bool
}

func newInvocation(o Options) *invocation {
	r := NewRunner(o.Jobs)
	r.progress = o.Progress
	return &invocation{o: o, runner: r, memo: map[string]cellValue{}, cfgs: map[string]any{}}
}

// NewInvocation starts one tpsim invocation at options o and returns the
// function that runs an experiment in it. Experiments share the invocation's
// pool and cells, and each Result carries the telemetry of every cell its
// experiment read. The first of those cells that failed verification is
// returned as a *CellError, ahead of the experiment's own error.
func NewInvocation(o Options) func(Experiment) (Result, error) {
	inv := newInvocation(o)
	return func(e Experiment) (Result, error) {
		inv.read = inv.read[:0]
		res, err := e.run(inv)
		for _, label := range inv.read {
			res.Timelines += inv.memo[label].timeline
			res.MetricsCSV += inv.memo[label].series
		}
		for _, label := range inv.read {
			if broken := inv.memo[label].err; broken != nil {
				return res, &CellError{label, broken}
			}
		}
		return res, err
	}
}

// runCells returns every cell's value in submission order. The cells not run
// yet run in one RunAll on the invocation's pool; the rest are read from the
// memo.
func runCells[R any](inv *invocation, cells []cell) []R {
	var jobs []Job[cellValue]
	for _, c := range cells {
		if cfg, ok := inv.cfgs[c.label]; ok {
			if !reflect.DeepEqual(cfg, c.cfg) {
				panic(fmt.Sprintf("core: two configs under cell label %q", c.label))
			}
			continue
		}
		inv.cfgs[c.label] = c.cfg
		if !inv.dry {
			jobs = append(jobs, Job[cellValue]{Label: c.label, Run: c.run})
		}
	}
	for i, v := range RunAll(inv.runner, jobs) {
		inv.memo[jobs[i].Label] = v
	}
	out := make([]R, len(cells))
	for i, c := range cells {
		out[i], _ = inv.memo[c.label].v.(R)
		if !slices.Contains(inv.read, c.label) {
			inv.read = append(inv.read, c.label)
		}
	}
	return out
}

// MemFigure is a Fig. 2 / Fig. 4 result: per-VM physical memory breakdown
// plus TPS savings, in paper-scale MB.
type MemFigure struct {
	ID    string
	Title string
	VMs   []VMRow
	// TotalMB is the owner-oriented total over all guests (the paper quotes
	// 3 648 MB baseline → 3 314 MB with preloading).
	TotalMB        float64
	TotalSavingsMB float64
}

// VMRow is one guest VM's stacked bar.
type VMRow struct {
	Name       string
	JavaMB     float64
	OtherMB    float64
	KernelMB   float64
	OverheadMB float64
	SavingsMB  float64
}

// Total reports the VM's physical usage in MB.
func (r VMRow) Total() float64 { return r.JavaMB + r.OtherMB + r.KernelMB + r.OverheadMB }

// JavaFigure is a Fig. 3 / Fig. 5 result: per-JVM Table IV category
// breakdown, in paper-scale MB.
type JavaFigure struct {
	ID    string
	Title string
	Bars  []JavaBar
}

// JavaBar is one JVM's stacked bar.
type JavaBar struct {
	Label string
	PID   int
	Cats  []CatRow
}

// CatRow is one Table IV category of one JVM.
type CatRow struct {
	Name     string
	MappedMB float64
	SharedMB float64 // the graded "Shared with TPS" portion
}

// Cat finds a category row by name (zero row if absent).
func (b JavaBar) Cat(name string) CatRow {
	for _, c := range b.Cats {
		if c.Name == name {
			return c
		}
	}
	return CatRow{Name: name}
}

// TotalMapped sums the bar's mapped MB.
func (b JavaBar) TotalMapped() float64 {
	var t float64
	for _, c := range b.Cats {
		t += c.MappedMB
	}
	return t
}

// TotalShared sums the bar's TPS-shared MB.
func (b JavaBar) TotalShared() float64 {
	var t float64
	for _, c := range b.Cats {
		t += c.SharedMB
	}
	return t
}

// mb converts simulated bytes to paper-scale MB.
func mb(bytes int64, scale int) float64 {
	return float64(bytes) * float64(scale) / (1 << 20)
}

// memFigureFrom converts an analysis into an untitled MemFigure.
func memFigureFrom(a *memanalysis.Analysis, scale int) MemFigure {
	var fig MemFigure
	for _, b := range a.VMBreakdowns() {
		fig.VMs = append(fig.VMs, VMRow{
			Name:       b.VMName,
			JavaMB:     mb(b.JavaBytes, scale),
			OtherMB:    mb(b.OtherProcBytes, scale),
			KernelMB:   mb(b.KernelBytes, scale),
			OverheadMB: mb(b.VMOverheadBytes, scale),
			SavingsMB:  mb(b.SavingsBytes, scale),
		})
		fig.TotalMB += mb(b.Total(), scale)
		fig.TotalSavingsMB += mb(b.SavingsBytes, scale)
	}
	return fig
}

// javaFigureFrom converts an analysis into an untitled JavaFigure, one bar
// per Java process, ordered by VM. Labels follow the paper ("JVM1".."JVM4"
// for the DayTrader figures; workload names for Fig. 3(b)/5(b)).
func javaFigureFrom(a *memanalysis.Analysis, scale int, labels []string) JavaFigure {
	var fig JavaFigure
	jbs := a.JavaBreakdowns()
	cats := figureCategories(jbs)
	for i, jb := range jbs {
		label := jb.VMName
		if i < len(labels) {
			label = labels[i]
		}
		bar := JavaBar{Label: label, PID: jb.PID}
		for _, cat := range cats {
			cu := jb.ByCat[cat]
			bar.Cats = append(bar.Cats, CatRow{
				Name:     cat,
				MappedMB: mb(cu.MappedBytes, scale),
				SharedMB: mb(cu.SharedBytes, scale),
			})
		}
		fig.Bars = append(fig.Bars, bar)
	}
	return fig
}

// figureCategories returns the Table IV category order for a Java figure,
// splitting the ShareJIT profile stubs (CatJITData) out of the code row
// when any JVM actually has stub memory. Flag-off runs never do, so their
// figures keep the exact seven-row layout and stay byte-identical; without
// the split, stub memory would either lump into the code category or
// silently vanish from the breakdown.
func figureCategories(jbs []memanalysis.JavaBreakdown) []string {
	cats := jvm.Categories()
	for _, jb := range jbs {
		if cu, ok := jb.ByCat[jvm.CatJITData]; ok && cu.MappedBytes > 0 {
			out := make([]string, 0, len(cats)+1)
			for _, c := range cats {
				out = append(out, c)
				if c == jvm.CatJITCode {
					out = append(out, jvm.CatJITData)
				}
			}
			return out
		}
	}
	return cats
}

// scenario is a breakdown figure's cluster: n guests running specs, whose
// Java bars the figures label in VM order.
type scenario struct {
	name  string
	n     int
	specs []workload.Spec
	bars  []string
}

// dayTrader is the §2.C measurement scenario of Fig. 2-5(a): four 1 GB
// guests each running WAS + DayTrader on a 6 GB host.
func dayTrader() scenario {
	return scenario{"daytrader", 4, []workload.Spec{workload.DayTrader()}, []string{"JVM1", "JVM2", "JVM3", "JVM4"}}
}

// mixed is the Fig. 3(b)/5(b) scenario: three guests running DayTrader,
// SPECjEnterprise 2010 and TPC-W in the same WAS version.
func mixed() scenario {
	return scenario{"mixed", 3, []workload.Spec{workload.DayTrader(), workload.SPECjEnterprise(), workload.TPCW()},
		[]string{"DayTrader", "SPECjEnterprise", "TPC-W"}}
}

// tuscany is the Fig. 3(c)/5(c) scenario: three Tuscany bigbank guests.
func tuscany() scenario {
	return scenario{"tuscany", 3, []workload.Spec{workload.Tuscany()}, []string{"JVM1", "JVM2", "JVM3"}}
}

// breakdown is a breakdown cell's value: the per-VM and the per-JVM view of
// one measured run, which the figures title (Fig. 2 and 3(a) are the two
// views of one cell, Fig. 4 and 5(a) of another).
type breakdown struct {
	mem  MemFigure
	java JavaFigure
}

// cellAt is the scenario's cell, with or without the copied shared class
// cache. A counterfactual cell turns one knob of its config with set and
// names it, which keeps its label apart from the factual one.
func (s scenario) cellAt(o Options, shared bool, knob string, set func(*ClusterConfig)) cell {
	cfg := o.clusterConfig(s.specs, s.n, shared)
	label := fmt.Sprintf("%s x%d shared=%v", s.name, s.n, shared)
	if set != nil {
		set(&cfg)
		label += " " + knob
	}
	return clusterCell(label, cfg, func(c *Cluster) breakdown {
		c.Run()
		a := c.Analyze()
		return breakdown{memFigureFrom(a, c.Cfg.Scale), javaFigureFrom(a, c.Cfg.Scale, s.bars)}
	})
}

// memView and javaView are the registry's views of a breakdown scenario's
// factual cell, titled as figure id.
func memView(s func() scenario, shared bool, id, title string) func(*invocation) MemFigure {
	return func(inv *invocation) MemFigure {
		f := runCells[breakdown](inv, []cell{s().cellAt(inv.o, shared, "", nil)})[0].mem
		f.ID, f.Title = id, title
		return f
	}
}

func javaView(s func() scenario, shared bool, id, title string) func(*invocation) JavaFigure {
	return func(inv *invocation) JavaFigure {
		f := runCells[breakdown](inv, []cell{s().cellAt(inv.o, shared, "", nil)})[0].java
		f.ID, f.Title = id, title
		return f
	}
}

// The breakdown figures, each a view of its scenario's factual cell.
var (
	fig2  = memView(dayTrader, false, "fig2", "Physical memory usage and TPS savings (baseline)")
	fig3a = javaView(dayTrader, false, "fig3a", "Java memory breakdown per WAS process (baseline)")
	fig4  = memView(dayTrader, true, "fig4", "Physical memory usage and TPS savings (classes preloaded)")
	fig5a = javaView(dayTrader, true, "fig5a", "Java memory breakdown per WAS process (classes preloaded)")
	fig3b = javaView(mixed, false, "fig3b", "Java breakdown: DayTrader / SPECjEnterprise / TPC-W in WAS (baseline)")
	// §4.B gives each Java program a cache name of its own; here all three
	// use the WAS cache populated with their own stacks. The WAS classes
	// dominate, which is the paper's point.
	fig5b = javaView(mixed, true, "fig5b", "Java breakdown: DayTrader / SPECjEnterprise / TPC-W in WAS (preloaded)")
	fig3c = javaView(tuscany, false, "fig3c", "Java breakdown: three Tuscany bigbank servers (baseline)")
	fig5c = javaView(tuscany, true, "fig5c", "Java breakdown: three Tuscany bigbank servers (preloaded)")
)

// Fig2 runs the baseline (no preloading) DayTrader scenario and returns the
// Fig. 2 VM breakdown together with the Fig. 3(a) Java breakdown from the
// same run, exactly as in the paper.
func Fig2(o Options) (MemFigure, JavaFigure) {
	inv := newInvocation(o)
	return fig2(inv), fig3a(inv)
}

// Fig4 runs the same scenario with the shared class cache copied into every
// guest and returns the Fig. 4 VM breakdown and Fig. 5(a) Java breakdown.
func Fig4(o Options) (MemFigure, JavaFigure) {
	inv := newInvocation(o)
	return fig4(inv), fig5a(inv)
}

// Fig3b runs the mixed-workload baseline breakdown.
func Fig3b(o Options) JavaFigure { return fig3b(newInvocation(o)) }

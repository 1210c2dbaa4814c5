package core

import (
	"fmt"

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
	// Jobs bounds the worker pool used to fan out independent cluster runs
	// (sweep points, error-bar repetitions, claim checks). 0 means
	// runtime.GOMAXPROCS(0); 1 runs everything sequentially inline. Results
	// are collected in submission order, so rendered output is identical at
	// every width.
	Jobs int
	// Progress, when set, receives a JobEvent as each fanned-out job starts
	// and finishes (cmd/tpsim routes these to stderr).
	Progress func(JobEvent)
	// Telemetry, when set, enables metrics sampling on every cluster the
	// experiment builds and collects each run's registry for rendering after
	// the fan-out completes (tpsim -timeline / -metrics-csv). Sampling is
	// read-only, so figures are unchanged by it.
	Telemetry *Telemetry
	// Knobs are the subsystem switches applied to every cluster the
	// experiment builds (tpsim -thp, -thp-ksm-split, -thp-max-ptes-none,
	// -tlb-entries, -incremental, -jitshare). A sweep ignores only the knob
	// that is its own axis.
	Knobs
	// ChaosSeed derives the chaos and datacenter experiments' fault
	// schedules (tpsim -chaos-seed). Fixed seed ⇒ byte-identical sweep
	// output at any Jobs width. No other experiment reads it.
	ChaosSeed uint64
	// DCHosts is the datacenter sweep's host count (tpsim -hosts, 0 = 3).
	// Only the datacenter experiment reads it.
	DCHosts int
	// NetGbps is the datacenter sweep's migration link rate
	// (tpsim -net-gbps, 0 = 10 Gb/s). Only the datacenter experiment
	// reads it.
	NetGbps float64
}

func (o Options) scale() int {
	if o.Scale == 0 {
		return DefaultScale
	}
	return o.Scale
}

// runner builds a Runner from the options, wiring the progress callback.
func (o Options) runner() *Runner {
	r := NewRunner(o.Jobs)
	if o.Progress != nil {
		r.OnProgress(o.Progress)
	}
	return r
}

// maxScale is the coarsest memory scale every registered experiment runs at:
// at -scale 80 a guest already runs out of memory.
const maxScale = 64

// Validate rejects option values the simulator would otherwise panic on or
// silently replace with a default. cmd/tpsim calls it once before anything
// runs.
func (o Options) Validate() error {
	for _, f := range []struct {
		flag string
		v    float64
	}{
		{"-scale", float64(o.Scale)},
		{"-jobs", float64(o.Jobs)},
		{"-thp-max-ptes-none", float64(o.THPMaxPtesNone)},
		{"-tlb-entries", float64(o.TLBEntries)},
		{"-hosts", float64(o.DCHosts)},
		{"-net-gbps", o.NetGbps},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must not be negative (got %v; 0 selects the default)", f.flag, f.v)
		}
	}
	if o.Scale > maxScale {
		return fmt.Errorf("-scale must be in 0..%d (got %d; coarser scales run the guests out of memory)", maxScale, o.Scale)
	}
	if o.THPMaxPtesNone >= mem.HugePages {
		return fmt.Errorf("-thp-max-ptes-none must be in 0..%d (got %d)", mem.HugePages-1, o.THPMaxPtesNone)
	}
	if o.THPPolicy == thp.PolicyFHPM && o.THPKSMSplit {
		return fmt.Errorf("-thp-ksm-split cannot be combined with -thp fhpm (fhpm splits per subpage itself)")
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
		EnableMetrics: o.Telemetry != nil,
	}
	if o.Quick {
		cfg.SteadyRounds = 15
	}
	return cfg
}

// figureCluster builds the single cluster of a breakdown figure and files its
// metrics registry with the telemetry collector.
func (o Options) figureCluster(name string, n int, shared bool, specs ...workload.Spec) *Cluster {
	c := BuildCluster(o.clusterConfig(specs, n, shared))
	o.Telemetry.Collect(fmt.Sprintf("%s x%d shared=%v", name, n, shared), c.Metrics)
	return c
}

// cell is one point of a sweep: an independent cluster run and the
// measurement that turns the built cluster into the sweep's row.
type cell[R any] struct {
	label   string
	cfg     ClusterConfig
	measure func(*Cluster) R
}

// runCells builds every cell's cluster, files its registry under the cell's
// submission index and measures it, fanned out across the options' runner;
// rows come back in submission order, so a sweep is byte-identical at every
// Jobs width.
func runCells[R any](o Options, cells []cell[R]) []R {
	jobs := make([]Job[R], len(cells))
	for i, cl := range cells {
		jobs[i] = Job[R]{Label: cl.label, Run: func() R {
			c := BuildCluster(cl.cfg)
			o.Telemetry.CollectAt(i, cl.label, c.Metrics)
			return cl.measure(c)
		}}
	}
	return RunAll(o.runner(), jobs)
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

// memFigureFrom converts an analysis into a MemFigure.
func memFigureFrom(id, title string, a *memanalysis.Analysis, scale int) MemFigure {
	fig := MemFigure{ID: id, Title: title}
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

// javaFigureFrom converts an analysis into a JavaFigure, one bar per Java
// process, ordered by VM. Labels follow the paper ("JVM1".."JVM4" for the
// DayTrader figures; workload names for Fig. 3(b)/5(b)).
func javaFigureFrom(id, title string, a *memanalysis.Analysis, scale int, labels []string) JavaFigure {
	fig := JavaFigure{ID: id, Title: title}
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

// dayTraderCluster builds the §2.C measurement scenario: four 1 GB guests
// each running WAS + DayTrader on a 6 GB host.
func dayTraderCluster(o Options, shared bool) *Cluster {
	return o.figureCluster("daytrader", 4, shared, workload.DayTrader())
}

// Fig2 runs the baseline (no preloading) DayTrader scenario and returns the
// Fig. 2 VM breakdown together with the Fig. 3(a) Java breakdown from the
// same run, exactly as in the paper.
func Fig2(o Options) (MemFigure, JavaFigure) {
	c := dayTraderCluster(o, false)
	c.Run()
	a := c.Analyze()
	labels := []string{"JVM1", "JVM2", "JVM3", "JVM4"}
	return memFigureFrom("fig2", "Physical memory usage and TPS savings (baseline)", a, c.Cfg.Scale),
		javaFigureFrom("fig3a", "Java memory breakdown per WAS process (baseline)", a, c.Cfg.Scale, labels)
}

// Fig4 runs the same scenario with the shared class cache copied into every
// guest and returns the Fig. 4 VM breakdown and Fig. 5(a) Java breakdown.
func Fig4(o Options) (MemFigure, JavaFigure) {
	c := dayTraderCluster(o, true)
	c.Run()
	a := c.Analyze()
	labels := []string{"JVM1", "JVM2", "JVM3", "JVM4"}
	return memFigureFrom("fig4", "Physical memory usage and TPS savings (classes preloaded)", a, c.Cfg.Scale),
		javaFigureFrom("fig5a", "Java memory breakdown per WAS process (classes preloaded)", a, c.Cfg.Scale, labels)
}

// mixedCluster is the Fig. 3(b)/5(b) scenario: three guests running
// DayTrader, SPECjEnterprise 2010 and TPC-W in the same WAS version.
func mixedCluster(o Options, shared bool) *Cluster {
	return o.figureCluster("mixed", 3, shared,
		workload.DayTrader(), workload.SPECjEnterprise(), workload.TPCW())
}

// Fig3b runs the mixed-workload baseline breakdown.
func Fig3b(o Options) JavaFigure {
	c := mixedCluster(o, false)
	c.Run()
	return javaFigureFrom("fig3b", "Java breakdown: DayTrader / SPECjEnterprise / TPC-W in WAS (baseline)",
		c.Analyze(), c.Cfg.Scale, []string{"DayTrader", "SPECjEnterprise", "TPC-W"})
}

// Fig5b runs the mixed-workload breakdown with per-application shared
// caches (§4.B: a separate cache name per Java program; here all three use
// the WAS cache populated with their own stacks — the WAS classes dominate,
// which is the paper's point).
func Fig5b(o Options) JavaFigure {
	c := mixedCluster(o, true)
	c.Run()
	return javaFigureFrom("fig5b", "Java breakdown: DayTrader / SPECjEnterprise / TPC-W in WAS (preloaded)",
		c.Analyze(), c.Cfg.Scale, []string{"DayTrader", "SPECjEnterprise", "TPC-W"})
}

// tuscanyCluster is the Fig. 3(c)/5(c) scenario: three Tuscany bigbank
// guests.
func tuscanyCluster(o Options, shared bool) *Cluster {
	return o.figureCluster("tuscany", 3, shared, workload.Tuscany())
}

// Fig3c runs the Tuscany baseline breakdown.
func Fig3c(o Options) JavaFigure {
	c := tuscanyCluster(o, false)
	c.Run()
	return javaFigureFrom("fig3c", "Java breakdown: three Tuscany bigbank servers (baseline)",
		c.Analyze(), c.Cfg.Scale, []string{"JVM1", "JVM2", "JVM3"})
}

// Fig5c runs the Tuscany breakdown with the 25 MB shared cache.
func Fig5c(o Options) JavaFigure {
	c := tuscanyCluster(o, true)
	c.Run()
	return javaFigureFrom("fig5c", "Java breakdown: three Tuscany bigbank servers (preloaded)",
		c.Analyze(), c.Cfg.Scale, []string{"JVM1", "JVM2", "JVM3"})
}

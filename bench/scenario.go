package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/jvm"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memanalysis"
	"repro/internal/simclock"
	"repro/internal/thp"
	"repro/internal/workload"
)

// plan sizes the work of a run. Every count is fixed before the run starts,
// never cut short by a clock, so the simulated results of a run depend on the
// plan and the seed alone and can be compared as digests.
type plan struct {
	Scale            int `json:"scale"`
	SteadyRounds     int `json:"steady_rounds"`
	THPRounds        int `json:"thp_rounds"`
	OvercommitRounds int `json:"overcommit_rounds"`
	PerfRounds       int `json:"perf_rounds"`
	IdleIntervals    int `json:"idle_intervals"`
	ChurnIntervals   int `json:"churn_intervals"`
}

// nominalSeconds is the run length the full plan is sized for: on the two
// cores the benchmark was written on, each workload's timed region then takes
// 6 to 10 s. SteadyRounds is the paper experiments' own 60; the huge-page
// workload runs twice as many because collapse, carving and re-absorption
// only get going once the guests are warm.
const nominalSeconds = 10

var (
	fullPlan  = plan{Scale: core.DefaultScale, SteadyRounds: 60, THPRounds: 120, OvercommitRounds: 15, PerfRounds: 10, IdleIntervals: 600, ChurnIntervals: 250}
	smokePlan = plan{Scale: 64, SteadyRounds: 5, THPRounds: 10, OvercommitRounds: 2, PerfRounds: 2, IdleIntervals: 20, ChurnIntervals: 20}
)

// planFor scales the full plan's counts to a run of the given length.
func planFor(seconds int) plan {
	n := func(full int) int {
		v := (full*seconds + nominalSeconds/2) / nominalSeconds
		if v < 1 {
			v = 1
		}
		return v
	}
	p := fullPlan
	p.SteadyRounds = n(p.SteadyRounds)
	p.THPRounds = n(p.THPRounds)
	p.OvercommitRounds = n(p.OvercommitRounds)
	p.PerfRounds = n(p.PerfRounds)
	p.IdleIntervals = n(p.IdleIntervals)
	p.ChurnIntervals = n(p.ChurnIntervals)
	return p
}

// scenario is one cluster run: the configuration handed to core, and how its
// final state is turned into figures.
type scenario struct {
	name string
	cfg  core.ClusterConfig
	// memID is the per-VM figure's id ("" = Java figure only); javaID and
	// labels are the per-JVM figure's.
	memID, memTitle   string
	javaID, javaTitle string
	labels            []string
	// perfRounds > 0 measures throughput after the steady phase (Fig. 7).
	perfRounds int
}

var (
	jvm4 = []string{"JVM1", "JVM2", "JVM3", "JVM4"}
	jvm3 = []string{"JVM1", "JVM2", "JVM3"}
	mix3 = []string{"DayTrader", "SPECjEnterprise", "TPC-W"}
)

func clusterConfig(p plan, seed mem.Seed, shared bool, n int, specs ...workload.Spec) core.ClusterConfig {
	return core.ClusterConfig{
		Scale:         p.Scale,
		Specs:         specs,
		NumVMs:        n,
		SharedClasses: shared,
		BaseSeed:      seed,
		SteadyRounds:  p.SteadyRounds,
	}
}

// dayTrader4 is the §2.C measurement scenario (Fig. 2 unshared, Fig. 4 with
// the class cache preloaded); ids and titles are the ones core.Fig2/Fig4 use,
// so the rendered text can be compared with theirs.
func dayTrader4(p plan, seed mem.Seed, shared bool) scenario {
	sc := scenario{
		name: "fig2", cfg: clusterConfig(p, seed, shared, 4, workload.DayTrader()), labels: jvm4,
		memID: "fig2", memTitle: "Physical memory usage and TPS savings (baseline)",
		javaID: "fig3a", javaTitle: "Java memory breakdown per WAS process (baseline)",
	}
	if shared {
		sc.name, sc.memID, sc.javaID = "fig4", "fig4", "fig5a"
		sc.memTitle = "Physical memory usage and TPS savings (classes preloaded)"
		sc.javaTitle = "Java memory breakdown per WAS process (classes preloaded)"
	}
	return sc
}

// paperScenarios are the six breakdown runs of the paper, in the order
// `tpsim all` produces them.
func paperScenarios(p plan, seed mem.Seed) []scenario {
	mixed := func(name string, shared bool, what string) scenario {
		return scenario{
			name:   name,
			cfg:    clusterConfig(p, seed, shared, 3, workload.DayTrader(), workload.SPECjEnterprise(), workload.TPCW()),
			javaID: name, javaTitle: "Java breakdown: DayTrader / SPECjEnterprise / TPC-W in WAS (" + what + ")",
			labels: mix3,
		}
	}
	tuscany := func(name string, shared bool, what string) scenario {
		return scenario{
			name:   name,
			cfg:    clusterConfig(p, seed, shared, 3, workload.Tuscany()),
			javaID: name, javaTitle: "Java breakdown: three Tuscany bigbank servers (" + what + ")",
			labels: jvm3,
		}
	}
	return []scenario{
		dayTrader4(p, seed, false),
		dayTrader4(p, seed, true),
		mixed("fig3b", false, "baseline"),
		mixed("fig5b", true, "preloaded"),
		tuscany("fig3c", false, "baseline"),
		tuscany("fig5c", true, "preloaded"),
	}
}

// overcommitScenarios are Fig. 7's 8-guest point, default and preloaded.
func overcommitScenarios(p plan, seed mem.Seed) []scenario {
	one := func(name string, shared bool) scenario {
		cfg := clusterConfig(p, seed, shared, 8, workload.DayTrader())
		cfg.SteadyRounds = p.OvercommitRounds
		// As in core's sweep: the window must span a full GC cycle per VM,
		// whose whole-heap touch is what turns over-commitment into faults.
		cfg.IterationsPerRound = 25
		return scenario{name: name, cfg: cfg, perfRounds: p.PerfRounds}
	}
	return []scenario{one("fig7-default", false), one("fig7-preloaded", true)}
}

// thpScenarios are the Fig. 4 scenario under the two huge-page policies that
// give sharing back: per-subpage carving, and whole-block KSM splits.
func thpScenarios(p plan, seed mem.Seed) []scenario {
	fhpm := dayTrader4(p, seed, true)
	fhpm.name, fhpm.cfg.THPPolicy = "fig4-fhpm", thp.PolicyFHPM
	fhpm.cfg.SteadyRounds = p.THPRounds
	split := dayTrader4(p, seed, true)
	split.name, split.cfg.THPPolicy, split.cfg.THPKSMSplit = "fig4-ksm-split", thp.PolicyAlways, true
	split.cfg.SteadyRounds = p.THPRounds
	return []scenario{fhpm, split}
}

// counters are the layers' exported statistics at one instant.
type counters struct {
	KSM     ksm.Stats
	Host    hypervisor.HostStats
	Content mem.ContentStats
	THP     thp.Stats
	// GuestGCs and GuestObjects sum the JVM heaps' collections and
	// allocations over the cluster's workers.
	GuestGCs, GuestObjects uint64
}

func snapshot(c *core.Cluster) counters {
	n := counters{
		KSM:     c.Scanner.Stats(),
		Host:    c.Host.Stats(),
		Content: c.Host.Phys().ContentStats(),
		THP:     c.THP.Stats(),
	}
	for _, w := range c.Workers {
		hs := w.JVM.Heap().Stats()
		n.GuestGCs += hs.MinorGCs + hs.MajorGCs
		n.GuestObjects += hs.Allocations
	}
	return n
}

// counts is a set of counters by name; the per-layer metrics that are plain
// counts take their names from it.
type counts map[string]float64

func (n counters) counts() counts {
	return counts{
		"ksm.pages_scanned":       float64(n.KSM.PagesScanned),
		"ksm.stable_merges":       float64(n.KSM.StableMerges),
		"ksm.unstable_merges":     float64(n.KSM.UnstableMerges),
		"ksm.checksum_skips":      float64(n.KSM.ChecksumSkips),
		"ksm.cow_breaks":          float64(n.KSM.COWBreaks),
		"ksm.stale_pruned":        float64(n.KSM.StalePruned),
		"ksm.full_scans":          float64(n.KSM.FullScans),
		"ksm.saved_bytes":         float64(n.KSM.SavedBytes),
		"mem.blobs":               float64(n.Content.Blobs),
		"mem.blob_bytes":          float64(n.Content.BlobBytes),
		"mem.intern_hits":         float64(n.Content.InternHits),
		"mem.cow_copies":          float64(n.Content.COWCopies),
		"hypervisor.minor_faults": float64(n.Host.MinorFaults),
		"hypervisor.major_faults": float64(n.Host.MajorFaults),
		"hypervisor.swap_outs":    float64(n.Host.SwapOuts),
		"hypervisor.cow_breaks":   float64(n.Host.COWBreaks),
		"hypervisor.huge_splits":  float64(n.Host.HugeSplits),
		"thp.collapses":           float64(n.THP.Collapses),
		"thp.partial_splits":      float64(n.THP.PartialSplits),
		"thp.reabsorbs":           float64(n.THP.Reabsorbs),
		"jvm.gc_cycles":           float64(n.GuestGCs),
		"jvm.objects_allocated":   float64(n.GuestObjects),
	}
}

// add accumulates sign × other into c.
func (c counts) add(other counts, sign float64) {
	for k, v := range other {
		c[k] += sign * v
	}
}

// job is one scenario's cluster on its way through the pipeline, with what
// the benchmark observed of it.
type job struct {
	sc scenario
	// tag tells a repeated run of the scenario from the first in check names.
	tag string
	c   *core.Cluster
	tr  *tracer

	// intervals holds the host milliseconds each simulated steady second
	// took (guest work, if any, plus the scan).
	intervals []float64
	// simSeconds is the simulated time the timed region advanced.
	simSeconds float64
	// before and after bracket the timed region.
	before, after counters

	mem  *core.MemFigure
	java *core.JavaFigure
	perf []core.VMPerf
	// leakErr is Cluster.CheckLeaks on the final state.
	leakErr error
}

// build constructs the cluster: host, guests booted one after another with
// the scanner already running, JVMs deployed. This is the run's set-up.
func (j *job) build() {
	s := j.tr.begin("core.build")
	j.c = core.BuildCluster(j.sc.cfg)
	j.tr.end(s)
}

// run is the timed part of a breakdown or sweep scenario: warm-up, the steady
// rounds, the throughput window if the scenario has one, and the analysis.
func (j *job) run() {
	c := j.c
	j.before = snapshot(c)
	start := c.Clock.Now()

	s := j.tr.begin("core.warmup")
	c.RunWarmup()
	j.tr.end(s)

	j.steady()

	if j.sc.perfRounds > 0 {
		s = j.tr.begin("core.perf")
		j.perf = c.MeasurePerf(j.sc.perfRounds)
		j.tr.end(s)
	}
	j.analyze()
	j.simSeconds = (c.Clock.Now() - start).Seconds()
	j.after = snapshot(c)
}

// steady drives the measurement phase exactly as Cluster.RunSteady does,
// from the cluster's exported parts, so each guest's requests and each
// simulated second of scanning can be timed on their own.
func (j *job) steady() {
	c := j.c
	s := j.tr.begin("core.steady")
	for round := 0; round < c.Cfg.SteadyRounds; round++ {
		t0 := time.Now()
		for _, w := range c.Workers {
			ws := j.tr.begin("workload.iter")
			w.RunSteadyState(c.Cfg.IterationsPerRound)
			j.tr.end(ws)
		}
		j.scanFor(c.Cfg.RoundDuration)
		j.intervals = append(j.intervals, msSince(t0))
	}
	j.tr.end(s)
}

// scanFor advances the simulated clock; the KSM scanner (and the huge-page
// daemon, where a policy enables it) are what run on it.
func (j *job) scanFor(d simclock.Time) {
	s := j.tr.begin("ksm.scan")
	j.c.Clock.RunFor(d)
	j.tr.end(s)
}

// scanIntervals is the timed part of the scan workloads: n simulated
// seconds on an already converged cluster, each timed as one sample. With
// churn, a rotating window of every guest's pages is rewritten first.
func (j *job) scanIntervals(n int, churn *churner) {
	c := j.c
	j.before = snapshot(c)
	start := c.Clock.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if churn != nil {
			s := j.tr.begin("hypervisor.churn")
			churn.rewrite(c.Host.VMs(), i)
			j.tr.end(s)
		}
		j.scanFor(simclock.Second)
		j.intervals = append(j.intervals, msSince(t0))
	}
	j.simSeconds = (c.Clock.Now() - start).Seconds()
	j.after = snapshot(c)
}

// analyze freezes the memory state through the paper's methodology and
// builds the figures core's own experiments build from it.
func (j *job) analyze() {
	s := j.tr.begin("memanalysis.analyze")
	a := j.c.Analyze()
	scale := j.c.Cfg.Scale
	if j.sc.memID != "" {
		f := memFigure(j.sc.memID, j.sc.memTitle, a, scale)
		j.mem = &f
	}
	if j.sc.javaID != "" {
		f := javaFigure(j.sc.javaID, j.sc.javaTitle, a, scale, j.sc.labels)
		j.java = &f
	}
	j.tr.end(s)
}

// finish checks the final state for leaked frames and swap slots, renders
// the scenario's results into out, and — unless keep is set, for the probes —
// drops the cluster.
func (j *job) finish(out *outputs, keep bool) {
	j.leakErr = j.c.CheckLeaks()
	if j.mem != nil {
		out.text(j.sc.name+"/"+j.mem.ID, core.RenderMemFigure(*j.mem))
		out.text(j.sc.name+"/"+j.mem.ID+".csv", core.MemFigureTable(*j.mem).CSV())
	}
	if j.java != nil {
		out.text(j.sc.name+"/"+j.java.ID, core.RenderJavaFigure(*j.java))
		out.text(j.sc.name+"/"+j.java.ID+".csv", core.JavaFigureTable(*j.java).CSV())
	}
	out.value(j.sc.name+"/ksm.Stats", j.after.KSM)
	out.value(j.sc.name+"/hypervisor.HostStats", j.after.Host)
	out.value(j.sc.name+"/mem.ContentStats", j.after.Content)
	if j.sc.cfg.THPPolicy != thp.PolicyNever {
		out.value(j.sc.name+"/thp.Stats", j.after.THP)
	}
	if !keep {
		j.c = nil
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// paperMB converts simulated bytes to paper-scale MB.
func paperMB(bytes int64, scale int) float64 {
	return float64(bytes) * float64(scale) / (1 << 20)
}

// memFigure and javaFigure rebuild, from the exported analysis, the figures
// core.Fig2 and friends return; TestPipelineMatchesCore holds them to it.
func memFigure(id, title string, a *memanalysis.Analysis, scale int) core.MemFigure {
	fig := core.MemFigure{ID: id, Title: title}
	for _, b := range a.VMBreakdowns() {
		fig.VMs = append(fig.VMs, core.VMRow{
			Name:       b.VMName,
			JavaMB:     paperMB(b.JavaBytes, scale),
			OtherMB:    paperMB(b.OtherProcBytes, scale),
			KernelMB:   paperMB(b.KernelBytes, scale),
			OverheadMB: paperMB(b.VMOverheadBytes, scale),
			SavingsMB:  paperMB(b.SavingsBytes, scale),
		})
		fig.TotalMB += paperMB(b.Total(), scale)
		fig.TotalSavingsMB += paperMB(b.SavingsBytes, scale)
	}
	return fig
}

func javaFigure(id, title string, a *memanalysis.Analysis, scale int, labels []string) core.JavaFigure {
	fig := core.JavaFigure{ID: id, Title: title}
	for i, jb := range a.JavaBreakdowns() {
		label := jb.VMName
		if i < len(labels) {
			label = labels[i]
		}
		bar := core.JavaBar{Label: label, PID: jb.PID}
		for _, cat := range jvm.Categories() {
			cu := jb.ByCat[cat]
			bar.Cats = append(bar.Cats, core.CatRow{
				Name:     cat,
				MappedMB: paperMB(cu.MappedBytes, scale),
				SharedMB: paperMB(cu.SharedBytes, scale),
			})
		}
		fig.Bars = append(fig.Bars, bar)
	}
	return fig
}

// sweepFigure renders the over-commitment pair as the one-point Fig. 7.
func sweepFigure(def, pre []core.VMPerf) core.SweepFigure {
	stat := func(v float64) core.Stat { return core.Stat{Min: v, Mean: v, Max: v} }
	return core.SweepFigure{
		ID: "fig7", Title: "DayTrader throughput vs number of guest VMs", Unit: "req/s",
		Points: []core.SweepPoint{{
			NumVMs:               len(def),
			Default:              stat(core.Aggregate(def)),
			Preloaded:            stat(core.Aggregate(pre)),
			DefaultSLAViolated:   core.AnySLAViolated(def),
			PreloadedSLAViolated: core.AnySLAViolated(pre),
		}},
	}
}

// churner rewrites a rotating window of every guest's pages: even offsets
// get content identical across guests (KSM merges it again two passes later),
// odd offsets get content private to the guest (it never merges).
type churner struct {
	seed mem.Seed
	// permille of each guest's pages rewritten per interval.
	permille int
}

func newChurner(seed mem.Seed) *churner {
	return &churner{seed: mem.Combine(mem.HashString("bench-churn"), seed), permille: 40}
}

func (ch *churner) rewrite(vms []*hypervisor.VMProcess, interval int) {
	for vi, vm := range vms {
		pages := vm.GuestPages()
		window := pages * ch.permille / 1000
		start := interval * window % pages
		for k := 0; k < window; k++ {
			gpfn := uint64((start + k) % pages)
			seed := mem.Combine(ch.seed, mem.Seed(interval), mem.Seed(gpfn))
			if k%2 == 1 {
				seed = mem.Combine(seed, mem.Seed(vi+1))
			}
			vm.FillGuestPage(gpfn, seed)
		}
	}
}

// paperRef is one headline number of the paper and what the run reproduced.
type paperRef struct {
	What        string
	Paper, Ours float64
}

func (r paperRef) errPct() float64 { return 100 * math.Abs(r.Ours-r.Paper) / r.Paper }

// paperRefs pairs the finished jobs' results with the paper's numbers. The
// non-primary JVMs are all but the one whose pages own the shared frames
// (the bar with the least TPS-shared memory).
func paperRefs(jobs []*job) []paperRef {
	var refs []paperRef
	nonPrimaryShared := func(f *core.JavaFigure) (meanMB, bestClassMetaPct float64) {
		owner := 0
		for i, b := range f.Bars {
			if b.TotalShared() < f.Bars[owner].TotalShared() {
				owner = i
			}
		}
		for i, b := range f.Bars {
			if i == owner {
				continue
			}
			meanMB += b.TotalShared() / float64(len(f.Bars)-1)
			if cm := b.Cat(jvm.CatClassMeta); cm.MappedMB > 0 && 100*cm.SharedMB/cm.MappedMB > bestClassMetaPct {
				bestClassMetaPct = 100 * cm.SharedMB / cm.MappedMB
			}
		}
		return meanMB, bestClassMetaPct
	}
	var perfDefault, perfPreloaded []core.VMPerf
	for _, j := range jobs {
		switch j.sc.name {
		case "fig2":
			saved, _ := nonPrimaryShared(j.java)
			refs = append(refs,
				paperRef{"Fig. 2 total MB", 3648, j.mem.TotalMB},
				paperRef{"Fig. 3(a) MB shared per non-primary JVM", 20, saved})
		case "fig4":
			saved, classMeta := nonPrimaryShared(j.java)
			refs = append(refs,
				paperRef{"Fig. 4 total MB", 3314, j.mem.TotalMB},
				paperRef{"Fig. 5(a) MB shared per non-primary JVM", 120, saved},
				paperRef{"Fig. 5(a) class metadata shared %", 89.6, classMeta})
		case "fig7-default":
			perfDefault = j.perf
		case "fig7-preloaded":
			perfPreloaded = j.perf
		}
	}
	if perfDefault != nil && perfPreloaded != nil {
		refs = append(refs,
			paperRef{"Fig. 7 req/s at 8 guests, default", 17.2, core.Aggregate(perfDefault)},
			paperRef{"Fig. 7 req/s at 8 guests, preloaded", 148.1, core.Aggregate(perfPreloaded)})
	}
	return refs
}

func paperErrPct(refs []paperRef) float64 {
	if len(refs) == 0 {
		return 0
	}
	var t float64
	for _, r := range refs {
		t += r.errPct()
	}
	return t / float64(len(refs))
}

func describeRefs(refs []paperRef) string {
	s := ""
	for _, r := range refs {
		s += fmt.Sprintf("  %-44s paper %8.1f  ours %8.1f  (%.1f %% off)\n", r.What, r.Paper, r.Ours, r.errPct())
	}
	return s
}

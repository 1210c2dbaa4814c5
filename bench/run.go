package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
)

// runOpts selects one run of one workload.
type runOpts struct {
	Workload string
	Seed     uint64
	Plan     plan
	Traced   bool
}

// check is one correctness check of a run's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// probeStat is a probe's nanoseconds per operation over its batches.
type probeStat struct {
	P50     float64 `json:"p50_ns"`
	P90     float64 `json:"p90_ns"`
	Batches int     `json:"batches"`
	PerOp   int     `json:"ops_per_batch"`
}

// runResult is everything one run measured. E2E is filled by untraced runs,
// Layers and Probes by traced ones; digest and checks by both.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Plan     plan   `json:"plan"`
	Traced   bool   `json:"traced"`

	E2E    map[string]float64   `json:"end_to_end,omitempty"`
	Layers map[string]float64   `json:"per_layer,omitempty"`
	Probes map[string]probeStat `json:"probes,omitempty"`
	// Intervals is the sample count behind interval_ms_p50; TailPct and
	// TailMS are the highest percentile that count supports, and its value.
	Intervals int     `json:"intervals"`
	TailPct   float64 `json:"interval_tail_pct"`
	TailMS    float64 `json:"interval_tail_ms"`

	PaperErrPct float64 `json:"paper_err_pct"`
	Digest      string  `json:"digest"`
	Checks      []check `json:"checks"`

	paper []paperRef
	spans []span
}

// metrics is what the run reports under the contract: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func (r *runResult) metrics() ([]metricDef, map[string]float64) {
	if r.Traced {
		return perLayer, r.Layers
	}
	return endToEnd, r.E2E
}

func (r *runResult) failed() int {
	n := 0
	for _, c := range r.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// meter accumulates the host cost of a region that may be entered several
// times: wall time, CPU time of the process, and the Go runtime's allocation
// and collection counters.
type meter struct {
	Wall, User, Sys time.Duration
	AllocBytes      uint64
	Mallocs         uint64
	GCs             uint32
	GCPause         time.Duration

	t0   time.Time
	ru0  syscall.Rusage
	ms0  runtime.MemStats
	last runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	must(syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0))
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.Wall += time.Since(m.t0)
	var ru syscall.Rusage
	must(syscall.Getrusage(syscall.RUSAGE_SELF, &ru))
	runtime.ReadMemStats(&m.last)
	m.User += tvDur(ru.Utime) - tvDur(m.ru0.Utime)
	m.Sys += tvDur(ru.Stime) - tvDur(m.ru0.Stime)
	m.AllocBytes += m.last.TotalAlloc - m.ms0.TotalAlloc
	m.Mallocs += m.last.Mallocs - m.ms0.Mallocs
	m.GCs += m.last.NumGC - m.ms0.NumGC
	m.GCPause += time.Duration(m.last.PauseTotalNs - m.ms0.PauseTotalNs)
}

func (m *meter) cpu() time.Duration { return m.User + m.Sys }

// plus adds two regions' wall and CPU time.
func (m meter) plus(o meter) meter {
	return meter{Wall: m.Wall + o.Wall, User: m.User + o.User, Sys: m.Sys + o.Sys}
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	must(syscall.Getrusage(syscall.RUSAGE_SELF, &ru))
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pass is one execution of a workload's scenarios: the jobs, the two metered
// regions, and the outputs they produced.
type pass struct {
	jobs         []*job
	setup, timed meter
	// total is set-up and the timed region together; where set-up happens
	// inside the timed region (fanout) it is the timed region alone.
	total meter
	// fanouts counts how many times the scenarios were run (1 but for fanout).
	fanouts int
	out     outputs
	// checks are the pass's own, beyond the per-job ones.
	checks []check
}

// serial runs the scenarios one after another at Jobs: 1 — build (set-up),
// run (timed), finish — keeping only the last cluster alive for the probes.
func serial(scs []scenario, tr *tracer) *pass {
	p := &pass{fanouts: 1}
	for i, sc := range scs {
		j := &job{sc: sc, tr: tr}
		p.jobs = append(p.jobs, j)
		p.setup.start()
		j.build()
		p.setup.stop()
		p.timed.start()
		j.run()
		p.timed.stop()
		j.finish(&p.out, i == len(scs)-1)
		// Each scenario starts from a collected heap, so that peak memory and
		// collector work belong to the scenario and not to when the previous
		// cluster happened to be swept.
		runtime.GC()
	}
	p.total = p.setup.plus(p.timed)
	return p
}

// fanoutPasses is how many times jobs_fanout fans the scenarios out in one
// run. With every core busy a single fan-out's wall time swings by a quarter
// from one run to the next on a small shared machine; two in a row halve that.
const fanoutPasses = 2

// fanout runs the same scenarios through core's parallel runner, as `tpsim
// -jobs N` does: each job builds its cluster, runs it and drops it, so only
// as many clusters are alive as the pool is wide. The timed region is the
// whole of the fan-outs; set-up happens inside the jobs, and setup_s is the
// building time summed over them. Every pass must produce the first's outputs.
func fanout(scs []scenario, tr *tracer, width int) *pass {
	p := &pass{fanouts: fanoutPasses}
	for n := 1; n <= fanoutPasses; n++ {
		outs := make([]outputs, len(scs))
		jobs := make([]*job, len(scs))
		var cj []core.Job[time.Duration]
		for i, sc := range scs {
			i, last := i, n == fanoutPasses && i == len(scs)-1
			jobs[i] = &job{sc: sc, tr: tr.fork()}
			if n > 1 {
				jobs[i].tag = fmt.Sprintf("#%d", n)
			}
			cj = append(cj, core.Job[time.Duration]{Label: sc.name, Run: func() time.Duration {
				t0 := time.Now()
				jobs[i].build()
				built := time.Since(t0)
				jobs[i].run()
				jobs[i].finish(&outs[i], last)
				return built
			}})
		}
		s := tr.begin("core.runner")
		p.timed.start()
		builds := core.RunAll(core.NewRunner(width), cj)
		p.timed.stop()
		var out outputs
		for i, j := range jobs {
			tr.adopt(j.tr)
			p.setup.Wall += builds[i]
			out.b = append(out.b, outs[i].b...)
		}
		tr.end(s)
		p.jobs = append(p.jobs, jobs...)
		if n == 1 {
			p.out = out
		} else {
			p.checks = append(p.checks, check{
				Name: fmt.Sprintf("digest/fan-out-%d-agrees", n), OK: out.digest() == p.out.digest(),
				Detail: fmt.Sprintf("first fan-out %s, this one %s", short(p.out.digest()), short(out.digest())),
			})
		}
	}
	p.total = p.timed
	return p
}

// scan builds and converges the 4-guest preloaded DayTrader cluster (set-up),
// then times n simulated seconds of rescanning it, idle or under churn.
func scan(pl plan, seed mem.Seed, n int, churn *churner, tr *tracer) *pass {
	p := &pass{fanouts: 1}
	j := &job{sc: dayTrader4(pl, seed, true), tr: tr}
	j.sc.name = "converged"
	p.jobs = append(p.jobs, j)
	p.setup.start()
	j.build()
	s := tr.begin("core.converge")
	j.c.Run()
	tr.end(s)
	p.setup.stop()
	p.timed.start()
	j.scanIntervals(n, churn)
	p.timed.stop()
	j.analyze()
	j.finish(&p.out, true)
	p.total = p.setup.plus(p.timed)
	return p
}

// fanoutWidth is jobs_fanout's pool width.
func fanoutWidth() int { return min(runtime.NumCPU(), 4) }

// runOnce executes one run of one workload in this process.
func runOnce(o runOpts) *runResult {
	res := &runResult{Workload: o.Workload, Seed: o.Seed, Plan: o.Plan, Traced: o.Traced}
	var tr *tracer
	if o.Traced {
		tr = newTracer()
	}
	seed := core.SeedFromUint64(o.Seed)
	top := tr.begin("workload." + o.Workload)
	var p *pass
	switch o.Workload {
	case "paper_figs":
		p = serial(paperScenarios(o.Plan, seed), tr)
	case "overcommit":
		p = serial(overcommitScenarios(o.Plan, seed), tr)
		fig := sweepFigure(p.jobs[0].perf, p.jobs[1].perf)
		p.out.text("fig7", core.RenderSweepFigure(fig))
		p.out.text("fig7.csv", core.SweepFigureTable(fig).CSV())
	case "scan_idle":
		p = scan(o.Plan, seed, o.Plan.IdleIntervals, nil, tr)
	case "scan_churn":
		p = scan(o.Plan, seed, o.Plan.ChurnIntervals, newChurner(seed), tr)
	case "thp_fhpm":
		p = serial(thpScenarios(o.Plan, seed), tr)
	case "jobs_fanout":
		p = fanout(paperScenarios(o.Plan, seed), tr, fanoutWidth())
	default:
		panic("bench: unknown workload " + o.Workload)
	}
	tr.end(top)

	res.Digest = p.out.digest()
	res.Checks = append(res.Checks, p.checks...)
	res.paper = paperRefs(p.jobs[:len(p.jobs)/p.fanouts])
	res.PaperErrPct = paperErrPct(res.paper)
	var intervals []float64
	var simSeconds float64
	delta, final := counts{}, counts{}
	for _, j := range p.jobs {
		intervals = append(intervals, j.intervals...)
		simSeconds += j.simSeconds
		after := j.after.counts()
		delta.add(after, 1)
		delta.add(j.before.counts(), -1)
		final.add(after, 1)
		res.check("leaks/"+j.sc.name+j.tag, j.leakErr == nil, "%s", leakDetail(j.leakErr))
	}
	purposeChecks(res, o, p, delta)

	res.Intervals = len(intervals)
	res.TailPct = highestPercentile(len(intervals))
	res.TailMS = percentile(intervals, res.TailPct)
	wall := p.timed.Wall.Seconds()
	if !o.Traced {
		res.E2E = map[string]float64{
			"setup_s":         p.setup.Wall.Seconds(),
			"wall_s":          wall,
			"cpu_s":           p.timed.cpu().Seconds(),
			"peak_rss_mb":     peakRSSMB(),
			"alloc_mb":        float64(p.timed.AllocBytes) / (1 << 20),
			"sim_speed_x":     simSeconds / wall,
			"interval_ms_p50": median(intervals),
		}
		finiteCheck(res, res.E2E)
		return res
	}

	res.spans = tr.spans
	for i := range res.spans {
		res.spans[i].Workload = o.Workload
	}
	res.Layers = layerMetrics(tr.spans, p, delta, final)
	res.Layers["core.paper_err_pct"] = res.PaperErrPct
	last := p.jobs[len(p.jobs)-1]
	res.Probes = runProbes(last.c, o.Seed)
	for name, ps := range res.Probes {
		res.Layers[name] = ps.P50
	}
	err := last.c.CheckLeaks()
	res.check("leaks/after-probes", err == nil, "%s", leakDetail(err))
	last.c = nil
	if o.Workload == "jobs_fanout" {
		// The same scenarios at Jobs: 1 in this process give the runner's
		// speed-up and CPU inflation their base, and must produce the very
		// same outputs.
		runtime.GC()
		ref := serial(paperScenarios(o.Plan, seed), nil)
		res.Layers["core.runner_speedup"] = float64(p.fanouts) * ref.total.Wall.Seconds() / p.total.Wall.Seconds()
		res.Layers["core.runner_cpu_inflation"] = p.total.cpu().Seconds() / (float64(p.fanouts) * ref.total.cpu().Seconds())
		res.check("digest/jobs-1-agrees", ref.out.digest() == res.Digest, "fan-out %s, Jobs: 1 %s", short(res.Digest), short(ref.out.digest()))
	}
	if s, err := strconv.ParseFloat(os.Getenv("TPBENCH_BUILD_S"), 64); err == nil {
		res.Layers["harness.build_s"] = s
	}
	res.Layers["trace.wall_s"] = wall
	res.Layers["trace.spans"] = float64(len(tr.spans))
	res.Layers["trace.overhead_pct"] = 100 * float64(len(tr.spans)) * spanCostNS() / float64(p.total.Wall)
	finiteCheck(res, res.Layers)
	return res
}

func leakDetail(err error) string {
	if err == nil {
		return "every frame and swap slot accounted for"
	}
	return err.Error()
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// spanCostNS measures what recording one span costs, on a scratch tracer.
func spanCostNS() float64 {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate"))
	}
	return float64(time.Since(t0)) / n
}

func finiteCheck(res *runResult, metrics map[string]float64) {
	bad := ""
	for name, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad += " " + name
		}
	}
	res.check("finite", bad == "", "non-finite metrics:%s", bad)
}

// purposeChecks hold each workload to the reason it is in the set: the
// layers it exists to exercise did work, and the ones it exists to leave
// alone did none. d is the counter movement over the timed region.
func purposeChecks(res *runResult, o runOpts, p *pass, d counts) {
	noSwap := func() {
		res.check("purpose/no-swap", d["hypervisor.swap_outs"] == 0, "%.0f swap-outs on a host that is not over-committed", d["hypervisor.swap_outs"])
	}
	merges := d["ksm.stable_merges"] + d["ksm.unstable_merges"]
	switch o.Workload {
	case "paper_figs", "jobs_fanout":
		noSwap()
		fig2, fig4 := p.jobs[0].mem.TotalMB, p.jobs[1].mem.TotalMB
		res.check("purpose/preload-reduces-total", fig4 < fig2, "Fig. 2 %.0f MB -> Fig. 4 %.0f MB", fig2, fig4)
	case "overcommit":
		def, pre := core.Aggregate(p.jobs[0].perf), core.Aggregate(p.jobs[1].perf)
		res.check("purpose/swaps", d["hypervisor.swap_outs"] > 0 && d["hypervisor.major_faults"] > 0,
			"%.0f swap-outs, %.0f major faults", d["hypervisor.swap_outs"], d["hypervisor.major_faults"])
		res.check("purpose/cliff", pre > def, "8 guests: default %.1f req/s, preloaded %.1f req/s", def, pre)
	case "scan_idle":
		noSwap()
		res.check("purpose/idle", d["hypervisor.cow_breaks"] == 0 && d["hypervisor.minor_faults"] == 0,
			"%.0f COW breaks, %.0f minor faults with no guest running", d["hypervisor.cow_breaks"], d["hypervisor.minor_faults"])
		res.check("purpose/rescans", d["ksm.pages_scanned"] > 0, "%.0f pages scanned in %d intervals", d["ksm.pages_scanned"], o.Plan.IdleIntervals)
	case "scan_churn":
		noSwap()
		res.check("purpose/churn-breaks-cow", d["hypervisor.cow_breaks"] > 0, "%.0f COW breaks", d["hypervisor.cow_breaks"])
		res.check("purpose/churn-remerges", merges > 0, "%.0f merges", merges)
	case "thp_fhpm":
		noSwap()
		fhpm, split := p.jobs[0].after, p.jobs[1].after
		res.check("purpose/collapses", fhpm.THP.Collapses > 0 && split.THP.Collapses > 0, "%d under fhpm, %d under always", fhpm.THP.Collapses, split.THP.Collapses)
		res.check("purpose/fhpm-carves", fhpm.Host.PartialSplits > 0, "%d partial splits", fhpm.Host.PartialSplits)
		res.check("purpose/ksm-splits", split.Host.HugeSplits > 0, "%d huge splits", split.Host.HugeSplits)
	}
}

// layerMetrics turns the traced run's spans and counter movement into the
// per-layer metrics that need no probe. d is the movement over the timed
// region, final the state it ended in, both summed over the clusters.
func layerMetrics(spans []span, p *pass, d, final counts) map[string]float64 {
	sec := func(name string) float64 { return sum(durations(spans, name)) / 1e9 }
	iterNS := durations(spans, "workload.iter")
	scanNS := durations(spans, "ksm.scan")
	m := make(map[string]float64, len(perLayer))
	for _, def := range perLayer {
		m[def.Name] = d[def.Name] // 0 unless a counter of that name moved
	}
	m["core.build_s"] = sec("core.build")
	m["core.warmup_s"] = sec("core.warmup")
	m["core.steady_s"] = sec("core.steady")
	m["core.perf_s"] = sec("core.perf")
	m["workload.steady_s"] = sum(iterNS) / 1e9
	if len(iterNS) > 0 {
		m["workload.iter_us_p50"] = median(iterNS) / 1e3
		m["workload.iter_us_p95"] = tail(iterNS, 95) / 1e3
	}
	m["ksm.scan_s"] = sum(scanNS) / 1e9
	if len(scanNS) > 0 {
		m["ksm.interval_ms_p95"] = tail(scanNS, 95) / 1e6
	}
	if scanned := d["ksm.pages_scanned"]; scanned > 0 {
		m["ksm.ns_per_page"] = sum(scanNS) / scanned
		m["ksm.merges_per_kpage"] = 1000 * (d["ksm.stable_merges"] + d["ksm.unstable_merges"]) / scanned
	}
	m["ksm.saved_mb"] = paperMB(int64(final["ksm.saved_bytes"]), p.jobs[0].sc.cfg.Scale)
	m["mem.blobs"] = final["mem.blobs"]
	m["mem.blob_mb"] = final["mem.blob_bytes"] / (1 << 20)
	m["memanalysis.analyze_ms"] = sec("memanalysis.analyze") * 1e3

	m["runtime.sys_s"] = p.timed.Sys.Seconds()
	m["runtime.gc_cycles"] = float64(p.timed.GCs)
	m["runtime.gc_pause_ms"] = float64(p.timed.GCPause) / float64(time.Millisecond)
	m["runtime.mallocs_k"] = float64(p.timed.Mallocs) / 1e3
	m["runtime.heap_sys_mb"] = float64(p.timed.last.HeapSys) / (1 << 20)
	return m
}

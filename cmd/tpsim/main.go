// Command tpsim reruns the experiments of "Increasing the Transparent Page
// Sharing in Java" (ISPASS 2013) on the simulated stack and prints
// paper-style reports.
//
// Usage:
//
//	tpsim [flags] <experiment>...
//
// Every experiment is a positional id from the registry in internal/core
// (tpsim -h lists them with their flags), or "all" for the paper's tables
// and figures. Knob flags (-thp, -incremental, -jitshare, -ksm-shards, ...)
// apply to every cluster of every experiment; a sweep ignores only the knob
// that is its own axis.
//
// Independent cluster runs (sweep points, error-bar repetitions, the
// experiments of "all") fan out across -jobs workers. Results are collected
// in submission order, so stdout is byte-identical at every -jobs width;
// progress and timing go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/thp"
)

// view selects what is printed for each experiment: the rendered report or
// its CSV (-csv), and the telemetry appended after it (-timeline,
// -metrics-csv).
type view struct {
	csv, timeline, metricsCSV bool
}

func main() {
	var (
		opts core.Options
		v    view
	)
	flag.IntVar(&opts.Scale, "scale", 0, "memory scale divisor (0 = default 16; smaller = slower, more faithful)")
	seed := flag.Uint64("seed", 0, "randomization seed")
	flag.BoolVar(&opts.Quick, "quick", false, "shorter steady state and sweeps")
	flag.BoolVar(&v.csv, "csv", false, "emit CSV instead of rendered reports")
	flag.IntVar(&opts.Jobs, "jobs", 0, "parallel cluster runs (0 = GOMAXPROCS, 1 = fully sequential)")
	flag.BoolVar(&v.timeline, "timeline", false, "append an ASCII timeline of sampled metrics after each experiment")
	flag.BoolVar(&v.metricsCSV, "metrics-csv", false, "append the sampled metrics series as CSV after each experiment")
	thpFlag := flag.String("thp", "never", "transparent huge page policy: never|madvise|always|fhpm (fhpm splits and re-promotes per subpage)")
	flag.BoolVar(&opts.THPKSMSplit, "thp-ksm-split", false, "let KSM split huge pages over verified duplicate content (not with -thp fhpm)")
	flag.IntVar(&opts.THPMaxPtesNone, "thp-max-ptes-none", 0, "khugepaged max_ptes_none collapse budget (0 = default 64)")
	flag.IntVar(&opts.TLBEntries, "tlb-entries", 0, "modeled TLB size for the reach estimate (0 = default 1024)")
	flag.Uint64Var(&opts.ChaosSeed, "chaos-seed", 0, "fault schedule seed of chaos and datacenter (fixed seed = byte-identical output)")
	flag.BoolVar(&opts.IncrementalScan, "incremental", false, "enable dirty-ring incremental KSM rescans")
	flag.BoolVar(&opts.JITShare, "jitshare", false, "attach the ShareJIT-style shared code archive to every JVM")
	flag.IntVar(&opts.KSMShards, "ksm-shards", 0, "KSM scanner shard count (0/1 = single-threaded; outcomes identical at every count)")
	flag.IntVar(&opts.DCHosts, "hosts", 0, "host count of datacenter (0 = 3)")
	flag.Float64Var(&opts.NetGbps, "net-gbps", 0, "migration link rate of datacenter in Gb/s (0 = 10)")
	flag.Usage = usage
	flag.Parse()
	ids := flag.Args()
	if len(ids) == 0 {
		usage()
		os.Exit(2)
	}
	opts.Seed = core.SeedFromUint64(*seed)
	opts.Progress = printProgress
	var err error
	if opts.THPPolicy, err = thp.ParsePolicy(*thpFlag); err == nil {
		err = opts.Validate()
	}
	// Resolve every id before running anything: a typo in the last one must
	// not cost the runs before it.
	groups := make([][]core.Experiment, len(ids))
	for i := 0; i < len(ids) && err == nil; i++ {
		groups[i], err = core.Lookup(ids[i])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsim: %v\n", err)
		os.Exit(2)
	}
	for i, id := range ids {
		if err := run(id, groups[i], opts, v); err != nil {
			fmt.Fprintf(os.Stderr, "tpsim: %v\n", err)
			os.Exit(1)
		}
	}
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprint(w, `tpsim — rerun the ISPASS 2013 TPS-in-Java experiments

usage: tpsim [flags] <experiment>...

experiments (* = run by "all"):
`)
	for _, e := range core.Experiments() {
		mark := " "
		if e.InAll {
			mark = "*"
		}
		fmt.Fprintf(w, "  %s %-13s %s\n", mark, e.ID, e.Summary)
	}
	fmt.Fprintf(w, "    %-13s every experiment marked *\n\nflags (before the experiment ids):\n", "all")
	flag.PrintDefaults()
	fmt.Fprint(w, `
The knob flags (-thp, -thp-ksm-split, -thp-max-ptes-none, -tlb-entries,
-incremental, -jitshare, -ksm-shards) apply to every cluster of every
experiment. A sweep ignores only the knob that is its own axis: thp-tradeoff
the THP policy, dirtylog -incremental, jitshare -jitshare, ksmshard
-ksm-shards. Figures are byte-identical at every -ksm-shards and -jobs value.
`)
}

// printProgress reports fanned-out job completions on stderr.
func printProgress(ev core.JobEvent) {
	if ev.Done {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s done in %v\n",
			ev.Index+1, ev.Total, ev.Label, ev.Elapsed.Round(time.Millisecond))
	}
}

// output is one experiment's stdout text and its verdict.
type output struct {
	text string
	err  error
}

// render runs one experiment and produces its stdout text: the figure plus,
// under -timeline or -metrics-csv, the telemetry of every cluster it ran.
// Each call gets its own collector, so the series ride along inside the
// experiment's output string and the submission-order collection keeps
// stdout unchanged at any -jobs width.
func render(e core.Experiment, opts core.Options, v view) output {
	if v.timeline || v.metricsCSV {
		opts.Telemetry = core.NewTelemetry()
	}
	res, err := e.Run(opts)
	text := res.Text
	if v.csv {
		text = res.CSV
	}
	if v.timeline {
		text += opts.Telemetry.RenderTimelines()
	}
	if v.metricsCSV {
		text += opts.Telemetry.CSV()
	}
	return output{text, err}
}

// run executes the experiments one positional id resolved to ("all" is the
// only id with several). They are independent, so they fan out on the -jobs
// pool — each inner sweep fans out its own cluster runs on the same width —
// and print in registry order.
func run(id string, exps []core.Experiment, opts core.Options, v view) error {
	start := time.Now()
	runner := core.NewRunner(opts.Jobs)
	runner.OnProgress(opts.Progress)
	jobs := make([]core.Job[output], len(exps))
	for i, e := range exps {
		jobs[i] = core.Job[output]{Label: e.ID, Run: func() output { return render(e, opts, v) }}
	}
	for _, out := range core.RunAll(runner, jobs) {
		fmt.Print(out.text)
		if out.err != nil {
			return out.err
		}
	}
	if len(exps) > 1 {
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

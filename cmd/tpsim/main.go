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
// and figures. Knob flags (-thp, -incremental, -jitshare, ...)
// apply to every cluster of every experiment; a sweep ignores only the knob
// that is its own axis.
//
// The experiments run one after another as one invocation: each hands its
// cells (the independent cluster runs behind it: sweep points, error-bar
// repetitions, a figure's one run) to a single pool of -jobs workers, and a
// cell that several experiments read (fig2 and fig3a, the figures check
// evaluates) runs once. Results are collected in submission order, so
// stdout is byte-identical at every -jobs width; progress and timing go to
// stderr.
//
// Exit status: 0 when everything ran, 1 when a check claim failed, 2 for
// bad flags or ids (before anything runs), 3 when a cell's host failed
// verification before it was dropped; stderr then has one line naming the
// cell and the broken law.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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
	flag.IntVar(&opts.Scale, "scale", 0, "memory scale divisor, 0..64 (0 = default 16; smaller = slower, more faithful)")
	seed := flag.Uint64("seed", 0, "randomization seed")
	flag.BoolVar(&opts.Quick, "quick", false, "shorter steady state and sweeps")
	flag.BoolVar(&v.csv, "csv", false, "emit CSV instead of rendered reports")
	flag.IntVar(&opts.Jobs, "jobs", 0, "parallel cluster runs (0 = GOMAXPROCS, 1 = fully sequential)")
	flag.BoolVar(&v.timeline, "timeline", false, "append an ASCII timeline of sampled metrics after each experiment")
	flag.BoolVar(&v.metricsCSV, "metrics-csv", false, "append the sampled metrics series as CSV after each experiment")
	thpFlag := flag.String("thp", "never", "transparent huge page policy: never|always|fhpm (fhpm splits and re-promotes per subpage)")
	flag.BoolVar(&opts.THPKSMSplit, "thp-ksm-split", false, "let KSM split huge pages over verified duplicate content (needs -thp always)")
	flag.Uint64Var(&opts.ChaosSeed, "chaos-seed", 0, "fault schedule seed of chaos (fixed seed = byte-identical output)")
	flag.BoolVar(&opts.IncrementalScan, "incremental", false, "enable dirty-ring incremental KSM rescans")
	flag.BoolVar(&opts.JITShare, "jitshare", false, "attach the ShareJIT-style shared code archive to every JVM (needs -scale 0..32)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to `file` at exit")
	flag.Usage = usage
	flag.Parse()
	ids := flag.Args()
	if len(ids) == 0 {
		usage()
		os.Exit(2)
	}
	opts.Seed = core.SeedFromUint64(*seed)
	opts.Progress = printProgress
	opts.Telemetry = v.timeline || v.metricsCSV
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
	var prof *profiles
	if err == nil {
		prof, err = startProfiles(*cpuProfile, *memProfile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsim: %v\n", err)
		os.Exit(2)
	}
	// os.Exit skips deferred calls: every exit from here on goes through
	// exit, which writes the profiles first.
	exit := func(code int) {
		prof.stop()
		os.Exit(code)
	}
	run := core.NewInvocation(opts)
	for i, id := range ids {
		start := time.Now()
		for _, e := range groups[i] {
			res, err := run(e)
			// A cell whose host broke a law leaves figures nobody should
			// read: its one line replaces the report.
			var broken *core.CellError
			if errors.As(err, &broken) {
				fmt.Fprintf(os.Stderr, "tpsim: %v\n", err)
				exit(3)
			}
			fmt.Print(v.render(res))
			if err != nil {
				fmt.Fprintf(os.Stderr, "tpsim: %v\n", err)
				exit(1)
			}
		}
		if len(groups[i]) > 1 {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	exit(0)
}

// profiles holds the files of -cpuprofile and -memprofile (nil when unset).
type profiles struct {
	cpu, mem *os.File
}

// startProfiles creates the requested profile files and starts the CPU
// profile, so a bad path fails before anything runs.
func startProfiles(cpuPath, memPath string) (*profiles, error) {
	p := &profiles{}
	var err error
	if cpuPath != "" {
		if p.cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(p.cpu); err != nil {
			p.cpu.Close()
			return nil, err
		}
	}
	if memPath != "" {
		if p.mem, err = os.Create(memPath); err != nil {
			p.stop()
			return nil, err
		}
	}
	return p, nil
}

// stop ends the CPU profile and writes the allocation profile. The
// collection first completes the heap profile: without it, allocations made
// since the last finished GC cycle are missing. A profile that cannot be
// written is reported on stderr; the exit status stays the run's.
func (p *profiles) stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		reportErr(p.cpu.Close())
	}
	if p.mem != nil {
		runtime.GC()
		reportErr(pprof.Lookup("allocs").WriteTo(p.mem, 0))
		reportErr(p.mem.Close())
	}
}

func reportErr(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpsim: %v\n", err)
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
The knob flags (-thp, -thp-ksm-split, -incremental, -jitshare) apply to
every cluster of every experiment. A sweep ignores only the knob that is its
own axis: thp-tradeoff the THP policy, dirtylog -incremental, jitshare
-jitshare. Figures are byte-identical at every -jobs value.
`)
}

// printProgress reports cell completions on stderr.
func printProgress(ev core.JobEvent) {
	if ev.Done {
		fmt.Fprintf(os.Stderr, "[%d/%d] %s done in %v\n",
			ev.Index+1, ev.Total, ev.Label, ev.Elapsed.Round(time.Millisecond))
	}
}

// render is one experiment's stdout text: the figure plus, under -timeline
// or -metrics-csv, the series of every cell it read.
func (v view) render(res core.Result) string {
	text := res.Text
	if v.csv {
		text = res.CSV
	}
	if v.timeline {
		text += res.Timelines
	}
	if v.metricsCSV {
		text += res.MetricsCSV
	}
	return text
}

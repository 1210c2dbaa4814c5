// Command bench is the repository's benchmark: it measures the host time and
// host memory the simulator needs for six workloads, checks that what the
// simulator computed is what it always computes, and — in a traced run —
// breaks the time down by layer. BENCHMARK.json at the root of the repository
// is its contract; README.md in this directory explains the choices.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, in this process
//	bench [-workload W] [-reps N] [-out FILE]         a set of runs, each in a child process
//	bench -smoke                                      the set, shrunk to seconds
//	bench -update-golden                              rewrite golden.json
//	bench -compare A.json B.json                      hold B to A within the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// defaultSeed is the seed golden.json's digests were recorded at.
const defaultSeed = 0

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Uint64("seed", defaultSeed, "seed of the simulated inputs")
		seconds  = flag.Int("seconds", nominalSeconds, "size the work so that a run measures for about this long")
		trace    = flag.Int("trace", -1, "0 or 1: make one run in this process, untraced or traced, and print its result as JSON")
		reps     = flag.Int("reps", 3, "untraced runs per workload in a set (one traced run is added)")
		out      = flag.String("out", "", "write the machine-readable result to this file")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans to this file")
		smoke    = flag.Bool("smoke", false, "shrink every workload to a fraction of a second (scale 64, one rep)")
		update   = flag.Bool("update-golden", false, "rewrite golden.json from this tree's digests")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadNamed(*workload); !ok {
		fatal("unknown workload %q", *workload)
	}
	pl := planFor(*seconds)
	if *smoke {
		pl = smokePlan
	}

	switch {
	case *update:
		os.Exit(updateGolden())
	case *trace == 0 || *trace == 1:
		if len(names) != 1 {
			fatal("-trace needs -workload")
		}
		res := runOnce(runOpts{Workload: names[0], Seed: *seed, Plan: pl, Traced: *trace == 1})
		checkGolden(res)
		report(res)
		if *out != "" {
			writeJSON(*out, res)
		}
		if *traceOut != "" {
			writeJSON(*traceOut, res.spans)
		}
		printContract(res)
		if res.failed() > 0 {
			os.Exit(1)
		}
	case *trace == -1:
		if *smoke {
			*reps = 1
		}
		os.Exit(runSet(setOpts{Workloads: names, Seed: *seed, Plan: pl, Seconds: *seconds, Smoke: *smoke, Reps: *reps, Out: *out, TraceOut: *traceOut}))
	default:
		fatal("-trace must be 0 or 1")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		fatal("encode %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
}

// contractResult is the one JSON object the benchmark driver reads from the
// last line of standard output.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContract(res *runResult) {
	defs, values := res.metrics()
	c := contractResult{Correct: res.failed() == 0, Attempted: len(res.Checks), Failed: res.failed(), Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		c.Metrics[d.Name] = contractMetric{Value: values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(c)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// report prints a run for a reader, on standard error: every metric by name
// with its unit, the accuracy against the paper, and the checks.
func report(res *runResult) {
	w := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  plan %+v\n", res.Workload, res.Seed, mode, res.Plan)
	defs, values := res.metrics()
	for _, d := range defs {
		extra := ""
		if ps, ok := res.Probes[d.Name]; ok {
			extra = fmt.Sprintf("p90 %.4g over %d batches of %d", ps.P90, ps.Batches, ps.PerOp)
		}
		if d.Name == "interval_ms_p50" {
			extra = fmt.Sprintf("p%g %.4g over %d intervals", res.TailPct, res.TailMS, res.Intervals)
		}
		fmt.Fprintf(w, "  %s\t%.6g\t%s\t%s\n", d.Name, values[d.Name], d.Unit, extra)
	}
	w.Flush()
	if len(res.paper) > 0 {
		fmt.Fprintf(os.Stderr, "  against the paper (mean error %.1f %%):\n%s", res.PaperErrPct, describeRefs(res.paper))
	}
	fmt.Fprintf(os.Stderr, "  digest %s\n", res.Digest)
	checks := append([]check(nil), res.Checks...)
	sort.SliceStable(checks, func(a, b int) bool { return !checks[a].OK && checks[b].OK })
	for _, c := range checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "  [%s] %s: %s\n", verdict, c.Name, c.Detail)
	}
}

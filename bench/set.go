package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"text/tabwriter"
)

// setOpts selects a set of runs: every named workload, Reps times untraced
// and once traced, each run in a fresh child process of this binary so that
// peak memory, collector state and CPU time belong to one run.
type setOpts struct {
	Workloads []string
	Seed      uint64
	// Plan is what Seconds and Smoke select; the children are handed those.
	Plan     plan
	Seconds  int
	Smoke    bool
	Reps     int
	Out      string
	TraceOut string
}

// summary is an end-to-end metric over a set's untraced runs.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

// workloadResult is one workload's part of a set.
type workloadResult struct {
	Name     string               `json:"name"`
	EndToEnd map[string]summary   `json:"end_to_end"`
	PerLayer map[string]float64   `json:"per_layer"`
	Probes   map[string]probeStat `json:"probes"`
	// TracedVsUntracedPct is the traced run's wall time over the untraced
	// median, less one: what observing cost, measured rather than estimated.
	TracedVsUntracedPct float64 `json:"traced_vs_untraced_pct"`
	PaperErrPct         float64 `json:"paper_err_pct"`
	Digest              string  `json:"digest"`
	Checks              int     `json:"checks"`
	ChecksFailed        int     `json:"checks_failed"`
	Failures            []check `json:"failures,omitempty"`
}

// setResult is the machine-readable result of a set (-out), and what
// -compare reads.
type setResult struct {
	Machine struct {
		NumCPU    int    `json:"nproc"`
		GoVersion string `json:"go"`
		OS        string `json:"os"`
		Arch      string `json:"arch"`
	} `json:"machine"`
	Seed      uint64            `json:"seed"`
	Plan      plan              `json:"plan"`
	Reps      int               `json:"reps"`
	Workloads []*workloadResult `json:"workloads"`
}

// childOpts is one child process's command line.
type childOpts struct {
	Workload string
	Seed     uint64
	Seconds  int
	Smoke    bool
	Traced   bool
	TraceOut string
}

// runChild makes one run in a child process and reads back its full result.
// A child that fails a check still reports; only one that cannot report is an
// error.
func runChild(o childOpts) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "tpbench-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{
		"-workload", o.Workload, "-seed", strconv.FormatUint(o.Seed, 10), "-seconds", strconv.Itoa(o.Seconds),
		"-trace", map[bool]string{false: "0", true: "1"}[o.Traced], "-out", tmp.Name(),
	}
	if o.Smoke {
		args = append(args, "-smoke")
	}
	if o.TraceOut != "" {
		args = append(args, "-trace-out", o.TraceOut)
	}
	cmd := exec.Command(self, args...)
	out, runErr := cmd.CombinedOutput()
	data, err := os.ReadFile(tmp.Name())
	var res runResult
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err != nil {
		return nil, fmt.Errorf("child %v gave no result (%v):\n%s", args, runErr, out)
	}
	return &res, nil
}

// runSet runs the set, prints it, writes -out and -trace-out, and returns the
// process's exit code: 1 if any check failed or any two runs of a workload
// disagreed on its digest.
func runSet(o setOpts) int {
	set := &setResult{Seed: o.Seed, Plan: o.Plan, Reps: o.Reps}
	set.Machine.NumCPU, set.Machine.GoVersion = runtime.NumCPU(), runtime.Version()
	set.Machine.OS, set.Machine.Arch = runtime.GOOS, runtime.GOARCH
	var spans []span
	exit := 0
	for _, name := range o.Workloads {
		wr := &workloadResult{Name: name, EndToEnd: map[string]summary{}}
		set.Workloads = append(set.Workloads, wr)
		values := map[string][]float64{}
		for rep := 0; rep <= o.Reps; rep++ {
			co := childOpts{Workload: name, Seed: o.Seed, Seconds: o.Seconds, Smoke: o.Smoke, Traced: rep == o.Reps}
			var spanFile string
			if co.Traced && o.TraceOut != "" {
				spanFile = o.TraceOut + "." + name + ".tmp"
				co.TraceOut = spanFile
			}
			fmt.Fprintf(os.Stderr, "%s: run %d of %d\n", name, rep+1, o.Reps+1)
			res, err := runChild(co)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			wr.Checks += len(res.Checks)
			for _, c := range res.Checks {
				if !c.OK {
					wr.Failures = append(wr.Failures, c)
				}
			}
			if wr.Digest == "" {
				wr.Digest = res.Digest
			}
			wr.Checks++
			if res.Digest != wr.Digest {
				wr.Failures = append(wr.Failures, check{Name: "digest/runs-agree", Detail: fmt.Sprintf("run %d has %s, run 1 had %s", rep+1, short(res.Digest), short(wr.Digest))})
			}
			if !res.Traced {
				for k, v := range res.E2E {
					values[k] = append(values[k], v)
				}
				continue
			}
			wr.PerLayer, wr.Probes, wr.PaperErrPct = res.Layers, res.Probes, res.PaperErrPct
			if spanFile != "" {
				var s []span
				if data, err := os.ReadFile(spanFile); err == nil && json.Unmarshal(data, &s) == nil {
					for i := range s {
						s[i].Rep = rep
					}
					spans = append(spans, s...)
				}
				os.Remove(spanFile)
			}
		}
		for k, v := range values {
			wr.EndToEnd[k] = summarize(v)
		}
		if med := wr.EndToEnd["wall_s"].Median; med > 0 {
			wr.TracedVsUntracedPct = 100 * (wr.PerLayer["trace.wall_s"]/med - 1)
		}
		wr.ChecksFailed = len(wr.Failures)
		if wr.ChecksFailed > 0 {
			exit = 1
		}
		printWorkload(wr)
	}
	if o.Out != "" {
		writeJSON(o.Out, set)
	}
	if o.TraceOut != "" {
		writeJSON(o.TraceOut, spans)
	}
	return exit
}

// printWorkload prints one workload of a set: every metric by name with its
// unit, end-to-end ones with quartiles and run count.
func printWorkload(wr *workloadResult) {
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "\n%s\tmedian\tq1\tq3\tn\tunit\n", wr.Name)
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %s\t%.5g\t%.5g\t%.5g\t%d\t%s\n", d.Name, s.Median, s.Q1, s.Q3, s.N, d.Unit)
	}
	fmt.Fprintf(w, "  checks_failed\t%d\t\t\tof %d\tcount\n", wr.ChecksFailed, wr.Checks)
	fmt.Fprintf(w, "  paper_err_pct\t%.4g\t\t\t\t%%\n", wr.PaperErrPct)
	fmt.Fprintf(w, "  traced_vs_untraced_pct\t%.3g\t\t\t\t%%\n", wr.TracedVsUntracedPct)
	for _, d := range perLayer {
		p90 := ""
		if ps, ok := wr.Probes[d.Name]; ok {
			p90 = fmt.Sprintf("p90 %.4g", ps.P90)
		}
		fmt.Fprintf(w, "  %s\t%.5g\t%s\t\t\t%s\n", d.Name, wr.PerLayer[d.Name], p90, d.Unit)
	}
	w.Flush()
	fmt.Printf("  digest %s\n", wr.Digest)
	for _, c := range wr.Failures {
		fmt.Printf("  [FAIL] %s: %s\n", c.Name, c.Detail)
	}
}

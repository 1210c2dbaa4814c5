package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json -compare uses.
type benchmarkJSON struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

func loadBenchmarkJSON() benchmarkJSON {
	var b benchmarkJSON
	data, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &b)
	}
	if err != nil {
		fatal("BENCHMARK.json: %v", err)
	}
	return b
}

// verdict holds candidate to base on one metric. "worse" means the median
// moved the wrong way by more than the bound. Where either side's spread is
// wider than the bound the medians decide nothing: the pair is "unresolved"
// unless every candidate run is on one side of every base run.
func verdict(base, cand summary, def metricDef) string {
	sign := 1.0 // multiply so that larger is worse
	if def.Better == "higher" {
		sign = -1
	}
	worsening := sign * (cand.Median - base.Median) / base.Median
	if base.spread() <= def.Bound && cand.spread() <= def.Bound {
		if worsening > def.Bound {
			return "worse"
		}
		return "ok"
	}
	allBetter, allWorse := true, true
	for _, b := range base.Values {
		for _, c := range cand.Values {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
			if sign*(c-b) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case allWorse && worsening > def.Bound:
		return "worse"
	}
	return "unresolved"
}

// compareFiles prints one row per workload and end-to-end metric of two set
// results and returns 1 if any row is worse, else 0.
func compareFiles(basePath, candPath string) int {
	load := func(path string) *setResult {
		var s setResult
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err != nil {
			fatal("%s: %v", path, err)
		}
		return &s
	}
	base, cand := load(basePath), load(candPath)
	defs := loadBenchmarkJSON().EndToEnd
	candBy := map[string]*workloadResult{}
	for _, w := range cand.Workloads {
		candBy[w.Name] = w
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tbase median [q1, q3]\tcandidate median [q1, q3]\tchange\tbound\tverdict")
	exit := 0
	for _, bw := range base.Workloads {
		cw, ok := candBy[bw.Name]
		if !ok {
			continue
		}
		for _, d := range defs {
			b, c := bw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			v := verdict(b, c, d)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(w, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				bw.Name, d.Name, b.Median, b.Q1, b.Q3, c.Median, c.Q1, c.Q3, 100*(c.Median-b.Median)/b.Median, 100*d.Bound, v)
		}
		digest := "same"
		if bw.Digest != cw.Digest {
			digest = "DIFFERENT"
		}
		fmt.Fprintf(w, "%s\tdigest\t%s\t%s\t\t\t%s\n", bw.Name, short(bw.Digest), short(cw.Digest), digest)
	}
	w.Flush()
	return exit
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// goldenFile records the digest of every workload's outputs at the default
// seed, for the full plan and the smoke plan. A change that is meant to leave
// the model alone must reproduce them; one that changes the model on purpose
// reruns `bench -update-golden` and says so.
type goldenFile struct {
	Seed  uint64        `json:"seed"`
	Plans []goldenEntry `json:"plans"`
}

type goldenEntry struct {
	Name    string            `json:"name"`
	Plan    plan              `json:"plan"`
	Digests map[string]string `json:"digests"`
}

// benchDir finds this package's directory from the two places the benchmark
// is started from: the root of the checkout (run.sh) and the directory itself
// (go run .).
func benchDir() string {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "run.sh")); err == nil {
			return dir
		}
	}
	fatal("cannot find the bench directory: start from the root of the checkout or from bench/")
	return ""
}

func goldenPath() string { return filepath.Join(benchDir(), "golden.json") }

func loadGolden() goldenFile {
	var g goldenFile
	data, err := os.ReadFile(goldenPath())
	if errors.Is(err, fs.ErrNotExist) {
		return g
	}
	if err == nil {
		err = json.Unmarshal(data, &g)
	}
	if err != nil {
		fatal("golden digests: %v", err)
	}
	return g
}

// checkGolden adds the golden comparison to a run made at the golden seed
// with one of the recorded plans; other runs have nothing to compare with.
func checkGolden(res *runResult) {
	g := loadGolden()
	if res.Seed != g.Seed {
		return
	}
	for _, e := range g.Plans {
		if want, ok := e.Digests[res.Workload]; ok && e.Plan == res.Plan {
			res.check("digest/golden", res.Digest == want, "%s plan: got %s, golden.json has %s", e.Name, short(res.Digest), short(want))
		}
	}
}

// updateGolden runs every workload under both plans, untraced and traced,
// and records the digest the two runs agree on.
func updateGolden() int {
	g := goldenFile{Seed: defaultSeed}
	for _, e := range []goldenEntry{{Name: "full", Plan: fullPlan}, {Name: "smoke", Plan: smokePlan}} {
		e.Digests = make(map[string]string)
		for _, w := range workloads {
			var runs []*runResult
			for _, traced := range []bool{false, true} {
				res, err := runChild(childOpts{Workload: w.Name, Seed: defaultSeed, Seconds: nominalSeconds, Smoke: e.Name == "smoke", Traced: traced})
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 1
				}
				runs = append(runs, res)
			}
			if runs[0].Digest != runs[1].Digest {
				fmt.Fprintf(os.Stderr, "bench: %s (%s plan): untraced and traced runs disagree: %s vs %s\n", w.Name, e.Name, short(runs[0].Digest), short(runs[1].Digest))
				return 1
			}
			e.Digests[w.Name] = runs[0].Digest
			fmt.Fprintf(os.Stderr, "%-6s %-12s %s\n", e.Name, w.Name, runs[0].Digest)
		}
		g.Plans = append(g.Plans, e)
	}
	writeJSON(goldenPath(), g)
	return 0
}

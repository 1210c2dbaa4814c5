package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestRunnerResultsInSubmissionOrder(t *testing.T) {
	for _, width := range []int{1, 2, 4, 16} {
		r := NewRunner(width)
		jobs := make([]Job[int], 40)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{Label: fmt.Sprint(i), Run: func() int {
				// Early jobs sleep longest so out-of-order completion is the
				// norm, not a scheduling accident.
				time.Sleep(time.Duration(len(jobs)-i) * 100 * time.Microsecond)
				return i * i
			}}
		}
		for i, v := range RunAll(r, jobs) {
			if v != i*i {
				t.Fatalf("width %d: result[%d] = %d, want %d", width, i, v, i*i)
			}
		}
	}
}

func TestRunnerBoundsConcurrency(t *testing.T) {
	const width = 3
	r := NewRunner(width)
	var inFlight, peak atomic.Int32
	jobs := make([]Job[struct{}], 24)
	for i := range jobs {
		jobs[i] = Job[struct{}]{Run: func() struct{} {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}
		}}
	}
	RunAll(r, jobs)
	if p := peak.Load(); p > width {
		t.Fatalf("peak concurrency %d exceeds pool width %d", p, width)
	}
}

func TestRunnerProgressEvents(t *testing.T) {
	r := NewRunner(4)
	var mu sync.Mutex
	started, finished := map[int]bool{}, map[int]bool{}
	r.progress = func(ev JobEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Total != 8 {
			t.Errorf("Total = %d, want 8", ev.Total)
		}
		if ev.Done {
			finished[ev.Index] = true
		} else {
			started[ev.Index] = true
		}
	}
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{Label: fmt.Sprint(i), Run: func() int { return 0 }}
	}
	RunAll(r, jobs)
	if len(started) != 8 || len(finished) != 8 {
		t.Fatalf("events: %d started, %d finished, want 8/8", len(started), len(finished))
	}
}

// TestRunnerCollectsBetweenJobs pins what keeps a pool's peak memory at its
// width's worth of clusters: a worker collects after each job. Two workers'
// collections may share a cycle, one worker's own cannot; NumGC rather than
// NumForcedGC because a cycle the pacer began first serves a caller as well.
func TestRunnerCollectsBetweenJobs(t *testing.T) {
	const width, n = 2, 8
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{Run: func() int { return 0 }}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	RunAll(NewRunner(width), jobs)
	runtime.ReadMemStats(&after)
	if got := after.NumGC - before.NumGC; got < n/width {
		t.Fatalf("%d collections over %d jobs on %d workers, want at least %d", got, n, width, n/width)
	}
}

func TestRunnerDefaultsAndSingleJob(t *testing.T) {
	if NewRunner(0).jobs < 1 {
		t.Fatal("default pool width < 1")
	}
	got := RunAll(NewRunner(8), []Job[string]{{Run: func() string { return "only" }}})
	if len(got) != 1 || got[0] != "only" {
		t.Fatalf("single job: %v", got)
	}
	if len(RunAll[int](NewRunner(4), nil)) != 0 {
		t.Fatal("empty job list should return empty results")
	}
}

// TestSweepDeterministicAcrossJobWidths covers what the fig7/fig8 rows of
// TestRegistryDeterministicAcrossJobs (seed 0, one repetition) leave out: at
// a non-zero seed and with error-bar repetitions, the rendered figure and its
// CSV must be byte-identical whether the sweep's cluster runs execute
// sequentially or on 4 workers.
func TestSweepDeterministicAcrossJobWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	var text, csv []string
	for _, jobs := range []int{1, 4} {
		o := Options{Scale: 64, Seed: 42, Jobs: jobs}
		f := sweep(newInvocation(o), "fig7", "determinism probe", "req/s",
			workload.DayTrader(), []int{1, 2}, 2, true)
		text = append(text, RenderSweepFigure(f))
		csv = append(csv, SweepFigureTable(f).CSV())
	}
	if text[0] != text[1] {
		t.Fatalf("rendered text differs between -jobs 1 and -jobs 4:\n%s\n---\n%s", text[0], text[1])
	}
	if csv[0] != csv[1] {
		t.Fatalf("CSV differs between -jobs 1 and -jobs 4:\n%s\n---\n%s", csv[0], csv[1])
	}
}

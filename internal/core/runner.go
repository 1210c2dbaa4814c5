package core

import (
	"runtime"
	"sync"
	"time"
)

// Runner executes independent experiment jobs across a bounded worker pool.
//
// Every experiment cluster owns its own simclock.Clock and mem.PhysMem, so
// whole-cluster runs (sweep points, error-bar repetitions, separate figures)
// are independent and can run concurrently. The runner fans them out over at
// most Jobs workers and hands results back in submission order, so any
// output rendered from the results is byte-identical to a sequential run.
// With Jobs == 1 the jobs execute inline on the calling goroutine — exactly
// today's sequential behaviour, with no goroutines involved. A pool worker
// collects the heap after each job, so at most Jobs clusters' worth of memory
// is held at a time — provided no job runs a RunAll of its own. An
// invocation (NewInvocation) keeps to that: it hands each experiment's cells
// to one RunAll, and experiments run one after another.
type Runner struct {
	jobs int

	// progress, when set, receives a JobEvent as each job starts and
	// finishes; mu serializes the calls, which must not block for long.
	mu       sync.Mutex
	progress func(JobEvent)
}

// JobEvent reports the start or completion of one job to the progress
// callback. Events may be emitted from worker goroutines in any order; only
// the result collection is ordered.
type JobEvent struct {
	Index   int    // submission index of the job
	Total   int    // number of jobs in this RunAll batch
	Label   string // display label of the job
	Done    bool   // false on start, true on completion
	Elapsed time.Duration
}

// NewRunner creates a runner with the given worker-pool width; jobs <= 0
// selects runtime.GOMAXPROCS(0).
func NewRunner(jobs int) *Runner {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Runner{jobs: jobs}
}

func (r *Runner) emit(ev JobEvent) {
	if r.progress != nil {
		r.mu.Lock()
		r.progress(ev)
		r.mu.Unlock()
	}
}

// Job is one labelled unit of independent work.
type Job[T any] struct {
	Label string
	Run   func() T
}

// RunAll executes the jobs on the runner's pool and returns their results
// indexed by submission order. (A free function because Go methods cannot
// introduce type parameters.)
func RunAll[T any](r *Runner, jobs []Job[T]) []T {
	results := make([]T, len(jobs))
	run := func(i int) {
		start := time.Now()
		r.emit(JobEvent{Index: i, Total: len(jobs), Label: jobs[i].Label})
		results[i] = jobs[i].Run()
		r.emit(JobEvent{Index: i, Total: len(jobs), Label: jobs[i].Label,
			Done: true, Elapsed: time.Since(start)})
	}
	if r.jobs == 1 || len(jobs) == 1 {
		for i := range jobs {
			run(i)
		}
		return results
	}
	workers := r.jobs
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
				// A job builds a cluster of hundreds of MB and drops it.
				// Collecting here lets the worker's next cluster reuse that
				// memory; left to the pacer, whether a third cluster's worth
				// piles up beside the live ones is a matter of timing, and
				// peak memory swings by a third from one run to the next.
				runtime.GC()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

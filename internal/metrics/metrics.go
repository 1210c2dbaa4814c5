// Package metrics is the simulator's time-series telemetry subsystem: a
// registry of named gauges sampled on a fixed virtual-time cadence into
// bounded ring-buffer series.
//
// The paper's §2.C methodology depends on *when* measurements happen — KSM
// scans at 10 000 pages/100 ms until sharing converges and the breakdowns
// are captured only afterwards — so the registry turns the previously
// opaque interval between boot and Analyze() into inspectable series:
// merged pages per pass, frames in use, heap occupancy, swap traffic.
//
// Design constraints, in order:
//
//   - deterministic: sampling is driven by the simclock event queue, probes
//     are read-only, and series order is fixed by name, so a run with
//     telemetry enabled is bit-identical to one without;
//   - allocation-bounded: every series is a fixed-capacity ring
//     (oldest samples are dropped, with a retained drop count);
//   - zero overhead when disabled: a nil *Registry is inert — every method
//     is a no-op.
//
// The registry itself is single-threaded like the rest of a cluster
// (one clock, one goroutine); concurrent *cluster runs* each own a private
// registry, rendered to text before the run's cluster is dropped.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/simclock"
)

// DefaultInterval is the virtual time between samples: 500 ms spans five
// KSM wake-ups per sample at the paper's 100 ms sleep interval.
const DefaultInterval = 500 * simclock.Millisecond

// DefaultCapacity is the per-series ring capacity: at the default cadence
// it retains a bit over half an hour of virtual time, which covers every
// experiment in the paper.
const DefaultCapacity = 4096

// probe is one registered metric: a read-only sampling function plus the
// series its samples land in.
type probe struct {
	name   string
	fn     func() float64
	series *Series
}

// Registry samples registered metrics on a virtual-time cadence. The zero
// of the type is not used; a nil *Registry is the disabled state.
type Registry struct {
	clock   *simclock.Clock
	probes  []*probe // sorted by name; registration keeps the order
	running bool
	ticks   int
}

// New creates a registry bound to a clock. Sampling does not start until
// Start is called.
func New(clock *simclock.Clock) *Registry {
	if clock == nil {
		panic("metrics: nil clock")
	}
	return &Registry{clock: clock}
}

// register adds a probe, keeping probes sorted by name so sample order and
// CSV columns are deterministic regardless of instrumentation order.
func (r *Registry) register(name string, fn func() float64) {
	if name == "" || fn == nil {
		panic("metrics: empty metric name or nil probe")
	}
	i := sort.Search(len(r.probes), func(i int) bool { return r.probes[i].name >= name })
	if i < len(r.probes) && r.probes[i].name == name {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	p := &probe{name: name, fn: fn, series: newSeries(name, DefaultCapacity)}
	r.probes = append(r.probes, nil)
	copy(r.probes[i+1:], r.probes[i:])
	r.probes[i] = p
}

// Gauge registers a pull-style metric: fn is invoked at every sample tick
// and must be read-only and deterministic. A nil registry is a no-op.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, fn)
}

// Interval reports the sampling cadence.
func (r *Registry) Interval() simclock.Time {
	if r == nil {
		return 0
	}
	return DefaultInterval
}

// Ticks reports how many sample ticks have fired.
func (r *Registry) Ticks() int {
	if r == nil {
		return 0
	}
	return r.ticks
}

// Start takes an immediate baseline sample and schedules the periodic
// sampler on the clock. A nil registry or a running one is a no-op.
func (r *Registry) Start() {
	if r == nil || r.running {
		return
	}
	r.running = true
	r.Sample()
	r.clock.Every(DefaultInterval, func(now simclock.Time) bool {
		if !r.running {
			return false
		}
		r.Sample()
		return true
	})
}

// Stop halts the periodic sampler after the current tick.
func (r *Registry) Stop() {
	if r == nil {
		return
	}
	r.running = false
}

// Sample takes one sample of every registered metric at the current virtual
// time. It may also be called directly for custom cadences.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	now := r.clock.Now()
	for _, p := range r.probes {
		p.series.append(now, p.fn())
	}
	r.ticks++
}

// Get returns the series registered under name, or nil.
func (r *Registry) Get(name string) *Series {
	if r == nil {
		return nil
	}
	i := sort.Search(len(r.probes), func(i int) bool { return r.probes[i].name >= name })
	if i < len(r.probes) && r.probes[i].name == name {
		return r.probes[i].series
	}
	return nil
}

// All returns every series in name order.
func (r *Registry) All() []*Series {
	if r == nil {
		return nil
	}
	out := make([]*Series, len(r.probes))
	for i, p := range r.probes {
		out[i] = p.series
	}
	return out
}

// CSV renders every series as one wide table: a time_s column followed by
// one column per metric in name order. Rows are the union of sample
// timestamps; a metric registered mid-run leaves its early cells empty.
func (r *Registry) CSV() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("time_s")
	for _, p := range r.probes {
		b.WriteString(",")
		b.WriteString(p.name)
	}
	b.WriteString("\n")

	// Collect the sorted union of timestamps, then one row per instant.
	seen := make(map[simclock.Time]bool)
	var times []simclock.Time
	for _, p := range r.probes {
		for i := 0; i < p.series.Len(); i++ {
			at := p.series.At(i).At
			if !seen[at] {
				seen[at] = true
				times = append(times, at)
			}
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	// Per-series cursors: timestamps are non-decreasing within a series, so
	// one forward walk per series covers all rows.
	cursors := make([]int, len(r.probes))
	for _, at := range times {
		fmt.Fprintf(&b, "%.3f", at.Seconds())
		for pi, p := range r.probes {
			b.WriteString(",")
			for cursors[pi] < p.series.Len() && p.series.At(cursors[pi]).At < at {
				cursors[pi]++
			}
			if cursors[pi] < p.series.Len() && p.series.At(cursors[pi]).At == at {
				fmt.Fprintf(&b, "%g", p.series.At(cursors[pi]).V)
				cursors[pi]++
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

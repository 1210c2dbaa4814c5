package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/report"
	"repro/internal/simclock"
)

// sampleInterval is the virtual time between telemetry samples: 500 ms spans
// five KSM wake-ups at the paper's 100 ms sleep interval.
const sampleInterval = 500 * simclock.Millisecond

// sparkWidth is the timeline column width of sampler.timeline.
const sparkWidth = 48

// sampler is a cluster's telemetry (-timeline, -metrics-csv): named gauges
// read on one virtual-time cadence into a table whose rows are the ticks and
// whose columns are the gauges in name order. The paper's §2.C numbers depend
// on when KSM has converged, and the table is how a run shows it.
//
// Every gauge is read at every tick after it joins, so a gauge that joins
// late (chaos's faults.*, registered after the cluster's t=0 sample) leaves
// only its leading cells empty, and one first-tick index per column places
// it. Probes are read-only, which keeps a telemetry-on run bit-identical to
// a telemetry-off one. The columns are plain slices: the longest cell of a
// full-scale `tpsim -timeline all dirtylog jitshare chaos check`
// (dirtylog n=4) takes 141 samples, about a kilobyte per gauge.
type sampler struct {
	clock  *simclock.Clock
	names  []string // sorted
	probes []func() float64
	joined []int // the tick at which each gauge joined
	times  []simclock.Time
	cols   [][]float64
}

// gauge adds a read-only probe in name order, so columns do not depend on the
// order of registration.
func (s *sampler) gauge(name string, fn func() float64) {
	if name == "" || fn == nil {
		panic("core: empty gauge name or nil probe")
	}
	i, found := slices.BinarySearch(s.names, name)
	if found {
		panic(fmt.Sprintf("core: duplicate gauge %q", name))
	}
	s.names = slices.Insert(s.names, i, name)
	s.probes = slices.Insert(s.probes, i, fn)
	s.joined = slices.Insert(s.joined, i, len(s.times))
	s.cols = slices.Insert(s.cols, i, nil)
}

// start samples once now and then every sampleInterval.
func (s *sampler) start() {
	s.sample()
	s.clock.Every(sampleInterval, func(simclock.Time) bool {
		s.sample()
		return true
	})
}

func (s *sampler) sample() {
	s.times = append(s.times, s.clock.Now())
	for i, fn := range s.probes {
		s.cols[i] = append(s.cols[i], fn())
	}
}

// timeline renders the table as a sparkline per gauge plus its first, last,
// min and max values; a gauge not yet sampled has no row.
func (s *sampler) timeline(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TIMELINE — %s  (interval %.1fs, %d samples)\n",
		label, sampleInterval.Seconds(), len(s.times))
	tab := &report.Table{Headers: []string{"metric", "timeline", "first", "last", "min", "max"}}
	for i, vs := range s.cols {
		if len(vs) == 0 {
			continue
		}
		tab.AddRow(s.names[i], report.Spark(vs, sparkWidth),
			fmt.Sprintf("%g", vs[0]), fmt.Sprintf("%g", vs[len(vs)-1]),
			fmt.Sprintf("%g", slices.Min(vs)), fmt.Sprintf("%g", slices.Max(vs)))
	}
	b.WriteString(tab.String())
	return b.String()
}

// csv renders the table wide: a time_s column, then one column per gauge in
// name order, one row per tick.
func (s *sampler) csv() string {
	var b strings.Builder
	b.WriteString("time_s")
	for _, name := range s.names {
		b.WriteString(",")
		b.WriteString(name)
	}
	b.WriteString("\n")
	for t, at := range s.times {
		fmt.Fprintf(&b, "%.3f", at.Seconds())
		for i, vs := range s.cols {
			b.WriteString(",")
			if t >= s.joined[i] {
				fmt.Fprintf(&b, "%g", vs[t-s.joined[i]])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

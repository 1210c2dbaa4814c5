package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's exported functions. Start and End are nanoseconds since the run's
// epoch; Parent indexes the enclosing span in the same slice (-1 at the top).
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, which is how untraced runs call the same code.
// A tracer belongs to one goroutine; fanned-out jobs get one each (fork) and
// are merged back in submission order (adopt).
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{epoch: t.epoch}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// adopt appends a forked tracer's spans under the innermost open span.
func (t *tracer) adopt(child *tracer) {
	if t == nil || child == nil {
		return
	}
	base := len(t.spans)
	top := -1
	if n := len(t.stack); n > 0 {
		top = t.stack[n-1]
	}
	for _, s := range child.spans {
		if s.Parent < 0 {
			s.Parent = top
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// durations lists the durations, in nanoseconds, of the spans called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its direct children cover (overlapping children, as under a
// fan-out, are counted once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.dur() - covered
	}
	return self
}

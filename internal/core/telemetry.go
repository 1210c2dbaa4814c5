package core

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/report"
)

// sparkWidth is the timeline column width of RenderTimeline.
const sparkWidth = 48

// RenderTimeline renders one run's series as an ASCII timeline: a sparkline
// per metric plus its first/last/min/max values.
func RenderTimeline(label string, r *metrics.Registry) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "TIMELINE — %s  (interval %.1fs, %d samples)\n",
		label, r.Interval().Seconds(), r.Ticks())
	tab := &report.Table{Headers: []string{"metric", "timeline", "first", "last", "min", "max"}}
	for _, s := range r.All() {
		if s.Len() == 0 {
			continue
		}
		vs := s.Values()
		last, _ := s.Last()
		tab.AddRow(s.Name(), report.Spark(vs, sparkWidth),
			fmt.Sprintf("%g", s.At(0).V), fmt.Sprintf("%g", last.V),
			fmt.Sprintf("%g", s.Min()), fmt.Sprintf("%g", s.Max()))
	}
	b.WriteString(tab.String())
	return b.String()
}

// Package report renders experiment results as aligned ASCII tables, bar
// charts and CSV — the textual equivalents of the paper's figures that
// cmd/tpsim and the benchmark harness print.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells (stringifying each).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes around cells
// containing commas).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// MB formats bytes as whole megabytes.
func MB(bytes int64) string {
	return fmt.Sprintf("%.0f", float64(bytes)/(1<<20))
}

// MB1 formats bytes as megabytes with one decimal.
func MB1(bytes int64) string {
	return fmt.Sprintf("%.1f", float64(bytes)/(1<<20))
}

// HBar renders value/max as a fixed-width horizontal bar.
func HBar(value, max float64, width int) string {
	if max <= 0 || width <= 0 {
		return ""
	}
	n := int(value/max*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Segment is one labelled portion of a stacked bar.
type Segment struct {
	Label string
	Value float64
}

// StackedBar renders a labelled stacked bar: each segment gets a character
// proportional to its share, with a legend of exact values.
func StackedBar(name string, segments []Segment, max float64, width int) string {
	var total float64
	for _, s := range segments {
		total += s.Value
	}
	var bar strings.Builder
	used := 0
	glyphs := "#@%*+=o^"
	for i, s := range segments {
		n := 0
		if max > 0 {
			n = int(s.Value/max*float64(width) + 0.5)
		}
		if used+n > width {
			n = width - used
		}
		bar.WriteString(strings.Repeat(string(glyphs[i%len(glyphs)]), n))
		used += n
	}
	if used < width {
		bar.WriteString(strings.Repeat(".", width-used))
	}
	parts := make([]string, 0, len(segments))
	for i, s := range segments {
		parts = append(parts, fmt.Sprintf("%c %s=%.1f", glyphs[i%len(glyphs)], s.Label, s.Value))
	}
	return fmt.Sprintf("%-10s |%s| total=%.1f  (%s)", name, bar.String(), total, strings.Join(parts, ", "))
}

// sparkGlyphs is the intensity ramp of Spark, lowest to highest. Plain
// ASCII so the timelines survive any terminal or log pipeline.
const sparkGlyphs = "_.:-=+*#@"

// Spark renders the values as a fixed-width ASCII sparkline: the range
// [min, max] maps onto the glyph ramp, and when there are more values than
// columns each column shows the maximum of its bucket (peaks matter more
// than troughs in a telemetry timeline). A flat series renders as the
// lowest glyph.
func Spark(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	if width > len(values) {
		width = len(values)
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for col := 0; col < width; col++ {
		start := col * len(values) / width
		end := (col + 1) * len(values) / width
		if end <= start {
			end = start + 1
		}
		bucket := values[start]
		for _, v := range values[start+1 : end] {
			if v > bucket {
				bucket = v
			}
		}
		g := 0
		if hi > lo {
			g = int((bucket - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
		}
		b.WriteByte(sparkGlyphs[g])
	}
	return b.String()
}

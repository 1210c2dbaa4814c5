package report

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableAlignment(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tab.AddRow("xxxxx", 1)
	tab.AddRow("y", 2.5)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
	if !strings.Contains(out, "2.5") {
		t.Fatal("float formatting lost")
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	tab.AddRow(`has,comma`, `has"quote`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"has,comma"`) {
		t.Fatalf("comma not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"has""quote"`) {
		t.Fatalf("quote not doubled: %s", csv)
	}
}

func TestMBFormat(t *testing.T) {
	if MB(10<<20) != "10" {
		t.Fatalf("MB = %s", MB(10<<20))
	}
	if MB1(1<<19) != "0.5" {
		t.Fatalf("MB1 = %s", MB1(1<<19))
	}
}

func TestHBarBounds(t *testing.T) {
	if got := HBar(5, 10, 10); got != "#####....." {
		t.Fatalf("HBar = %q", got)
	}
	if got := HBar(20, 10, 10); got != "##########" {
		t.Fatalf("overflow clamp: %q", got)
	}
	if got := HBar(-1, 10, 10); got != ".........." {
		t.Fatalf("negative clamp: %q", got)
	}
	if HBar(1, 0, 10) != "" {
		t.Fatal("zero max should render empty")
	}
}

func TestPropertyHBarWidthConstant(t *testing.T) {
	f := func(v, m uint16) bool {
		if m == 0 {
			return true
		}
		return len(HBar(float64(v), float64(m), 20)) == 20
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStackedBar(t *testing.T) {
	out := StackedBar("JVM1", []Segment{{"code", 10}, {"heap", 30}}, 80, 40)
	if !strings.Contains(out, "total=40.0") {
		t.Fatalf("total missing: %s", out)
	}
	if !strings.Contains(out, "code=10.0") || !strings.Contains(out, "heap=30.0") {
		t.Fatalf("legend missing: %s", out)
	}
	if !strings.Contains(out, "|") {
		t.Fatal("bar missing")
	}
}

func TestSpark(t *testing.T) {
	if got := Spark(nil, 10); got != "" {
		t.Fatalf("empty input: %q", got)
	}
	if got := Spark([]float64{1, 2, 3}, 0); got != "" {
		t.Fatalf("zero width: %q", got)
	}
	// Flat series renders as the lowest glyph.
	if got := Spark([]float64{5, 5, 5, 5}, 4); got != "____" {
		t.Fatalf("flat: %q", got)
	}
	// A ramp must be monotonically non-decreasing in glyph intensity and
	// span the full ramp.
	ramp := make([]float64, 48)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	got := Spark(ramp, 12)
	if len(got) != 12 || got[0] != '_' || got[len(got)-1] != '@' {
		t.Fatalf("ramp: %q", got)
	}
	prev := -1
	for _, ch := range []byte(got) {
		lvl := strings.IndexByte(sparkGlyphs, ch)
		if lvl < 0 || lvl < prev {
			t.Fatalf("ramp not monotone: %q", got)
		}
		prev = lvl
	}
	// Fewer values than columns: width clamps to the value count.
	if got := Spark([]float64{0, 1}, 10); got != "_@" {
		t.Fatalf("clamp: %q", got)
	}
	// Buckets keep peaks: a single spike must survive downsampling.
	spike := make([]float64, 40)
	spike[17] = 9
	if !strings.Contains(Spark(spike, 8), "@") {
		t.Fatalf("spike lost: %q", Spark(spike, 8))
	}
}

package metrics

import (
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestSeriesRingBounded(t *testing.T) {
	s := newSeries("x", 4)
	for i := 0; i < 10; i++ {
		s.append(simclock.Time(i), float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if s.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", s.Dropped())
	}
	for i := 0; i < 4; i++ {
		want := float64(6 + i)
		if got := s.At(i).V; got != want {
			t.Fatalf("At(%d) = %g, want %g", i, got, want)
		}
	}
	if last, ok := s.Last(); !ok || last.V != 9 {
		t.Fatalf("Last = %v %v", last, ok)
	}
	if s.Min() != 6 || s.Max() != 9 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
	if vs := s.Values(); len(vs) != 4 || vs[0] != 6 || vs[3] != 9 {
		t.Fatalf("values = %v", vs)
	}
}

func TestNilRegistryInert(t *testing.T) {
	var r *Registry
	r.Gauge("g", func() float64 { return 1 })
	r.Start()
	r.Sample()
	r.Stop()
	if r.Get("g") != nil || r.All() != nil || r.CSV() != "" || r.Ticks() != 0 || r.Interval() != 0 {
		t.Fatal("nil registry not inert")
	}
}

func TestRegistrySamplesOnCadence(t *testing.T) {
	clock := simclock.New()
	r := New(clock)
	n := 0.0
	r.Gauge("ticker", func() float64 { n++; return n })
	r.Start()
	clock.RunFor(5 * DefaultInterval)
	s := r.Get("ticker")
	// One baseline sample at Start plus five periodic samples.
	if s.Len() != 6 {
		t.Fatalf("samples = %d, want 6", s.Len())
	}
	if s.At(0).At != 0 || s.At(5).At != 5*DefaultInterval {
		t.Fatalf("sample times: %v .. %v", s.At(0).At, s.At(5).At)
	}
	r.Stop()
	clock.RunFor(5 * DefaultInterval)
	if s.Len() != 6 { // the pending tick sees the stop and takes no sample
		t.Fatalf("samples after stop = %d, want 6", s.Len())
	}
}

func TestRegistryDeterministicOrder(t *testing.T) {
	clock := simclock.New()
	r := New(clock)
	r.Gauge("zebra", func() float64 { return 1 })
	r.Gauge("alpha", func() float64 { return 2 })
	r.Gauge("mid.gauge", func() float64 { return 3 })
	names := []string{}
	for _, s := range r.All() {
		names = append(names, s.Name())
	}
	if strings.Join(names, " ") != "alpha mid.gauge zebra" {
		t.Fatalf("series order = %v", names)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate metric")
		}
	}()
	r := New(simclock.New())
	r.Gauge("dup", func() float64 { return 0 })
	r.Gauge("dup", func() float64 { return 1 })
}

func TestCSVWideFormat(t *testing.T) {
	clock := simclock.New()
	r := New(clock)
	r.Gauge("b.second", func() float64 { return 2 })
	r.Gauge("a.first", func() float64 { return float64(clock.Now() / DefaultInterval) })
	r.Start()
	clock.RunFor(2 * DefaultInterval)
	got := r.CSV()
	want := "time_s,a.first,b.second\n" +
		"0.000,0,2\n" +
		"0.500,1,2\n" +
		"1.000,2,2\n"
	if got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestCSVLateRegisteredSeries(t *testing.T) {
	clock := simclock.New()
	r := New(clock)
	r.Gauge("early", func() float64 { return 1 })
	r.Start()
	clock.RunFor(DefaultInterval)
	r.Gauge("late", func() float64 { return 9 })
	clock.RunFor(DefaultInterval)
	got := r.CSV()
	want := "time_s,early,late\n" +
		"0.000,1,\n" +
		"0.500,1,\n" +
		"1.000,1,9\n"
	if got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestSamplingIsAllocationBounded(t *testing.T) {
	clock := simclock.New()
	r := New(clock)
	r.Gauge("g", func() float64 { return 1 })
	r.Start()
	const ticks = DefaultCapacity + 1000
	clock.RunFor(ticks * DefaultInterval) // into a ring of DefaultCapacity
	s := r.Get("g")
	if s.Len() != DefaultCapacity {
		t.Fatalf("len = %d, want %d", s.Len(), DefaultCapacity)
	}
	if s.Dropped() != ticks+1-DefaultCapacity {
		t.Fatalf("dropped = %d, want %d", s.Dropped(), ticks+1-DefaultCapacity)
	}
	// The retained window is the most recent one.
	if first := s.At(0).At; first != (ticks+1-DefaultCapacity)*DefaultInterval {
		t.Fatalf("oldest retained at %v", first)
	}
}

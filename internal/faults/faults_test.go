package faults

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/simclock"
)

// fakeTarget scripts a cluster: a fixed number of slots with an alive bit,
// recording every call in order so two runs can be compared event for event.
type fakeTarget struct {
	alive []bool
	log   []string
	// spike is the outcome returned by every DemandSpike.
	spike SpikeOutcome
}

func newFakeTarget(n int) *fakeTarget {
	ft := &fakeTarget{alive: make([]bool, n)}
	for i := range ft.alive {
		ft.alive[i] = true
	}
	return ft
}

func (ft *fakeTarget) Guests() int         { return len(ft.alive) }
func (ft *fakeTarget) Alive(slot int) bool { return ft.alive[slot] }
func (ft *fakeTarget) Kill(slot int) {
	ft.alive[slot] = false
	ft.log = append(ft.log, fmt.Sprintf("kill %d", slot))
}
func (ft *fakeTarget) Restart(slot int) {
	ft.alive[slot] = true
	ft.log = append(ft.log, fmt.Sprintf("restart %d", slot))
}
func (ft *fakeTarget) ReleaseSpike() { ft.log = append(ft.log, "release") }
func (ft *fakeTarget) StallScanner(d simclock.Time) {
	ft.log = append(ft.log, fmt.Sprintf("stall %d", d))
}
func (ft *fakeTarget) DemandSpike(pages int) SpikeOutcome {
	ft.log = append(ft.log, fmt.Sprintf("spike %d", pages))
	return ft.spike
}

func chaosRun(seed uint64, guests int) (*fakeTarget, Stats) {
	clock := simclock.New()
	ft := newFakeTarget(guests)
	inj := New(clock, Config{
		Seed:       seed,
		Horizon:    time(60),
		KillEvery:  time(5),
		SpikeEvery: time(7),
		SpikePages: 100,
		StallEvery: time(11),
	}, ft)
	inj.Start()
	clock.RunFor(time(90)) // past the horizon: drain everything, restarts included
	return ft, inj.Stats()
}

func time(sec int) simclock.Time { return simclock.Time(sec) * simclock.Second }

func TestSameSeedSameFaultHistory(t *testing.T) {
	ft1, st1 := chaosRun(42, 4)
	ft2, st2 := chaosRun(42, 4)
	if !reflect.DeepEqual(ft1.log, ft2.log) {
		t.Fatalf("same seed, different histories:\n%v\n%v", ft1.log, ft2.log)
	}
	if st1 != st2 {
		t.Fatalf("same seed, different stats: %v vs %v", st1, st2)
	}
	if st1.Kills == 0 || st1.Spikes == 0 || st1.Stalls == 0 {
		t.Fatalf("schedule too sparse to test anything: %v", st1)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	ft1, _ := chaosRun(1, 4)
	ft2, _ := chaosRun(2, 4)
	if reflect.DeepEqual(ft1.log, ft2.log) {
		t.Fatal("different seeds produced identical fault histories")
	}
}

func TestStatsMatchHistory(t *testing.T) {
	ft, st := chaosRun(7, 3)
	count := func(prefix string) uint64 {
		var n uint64
		for _, e := range ft.log {
			if len(e) >= len(prefix) && e[:len(prefix)] == prefix {
				n++
			}
		}
		return n
	}
	if got := count("kill "); got != st.Kills {
		t.Fatalf("log has %d kills, stats say %d", got, st.Kills)
	}
	if got := count("restart "); got != st.Restarts {
		t.Fatalf("log has %d restarts, stats say %d", got, st.Restarts)
	}
	if got := count("spike "); got != st.Spikes {
		t.Fatalf("log has %d spikes, stats say %d", got, st.Spikes)
	}
	if got := count("release"); got != st.SpikeReleases {
		t.Fatalf("log has %d releases, stats say %d", got, st.SpikeReleases)
	}
	if got := count("stall "); got != st.Stalls {
		t.Fatalf("log has %d stalls, stats say %d", got, st.Stalls)
	}
}

func TestEveryKillIsRestarted(t *testing.T) {
	// The run extends well past horizon+RestartDelay, so every kill must have
	// been matched by a restart and all guests end up alive.
	ft, st := chaosRun(42, 4)
	if st.Restarts != st.Kills {
		t.Fatalf("%d kills but %d restarts", st.Kills, st.Restarts)
	}
	for slot, a := range ft.alive {
		if !a {
			t.Fatalf("slot %d left dead after the run", slot)
		}
	}
}

func TestKillSkippedWithOneGuest(t *testing.T) {
	clock := simclock.New()
	ft := newFakeTarget(1)
	inj := New(clock, Config{Seed: 3, Horizon: time(60), KillEvery: time(5)}, ft)
	inj.Start()
	clock.RunFor(time(90))
	st := inj.Stats()
	if st.Kills != 0 {
		t.Fatalf("killed the last guest %d times", st.Kills)
	}
	if st.KillsSkipped == 0 {
		t.Fatal("no kill events were even attempted")
	}
	if !ft.alive[0] {
		t.Fatal("sole guest is dead")
	}
}

func TestSpikeOutcomeAccumulates(t *testing.T) {
	clock := simclock.New()
	ft := newFakeTarget(2)
	ft.spike = SpikeOutcome{BalloonPages: 10, ClaimedPages: 90, OOMKills: 1}
	inj := New(clock, Config{Seed: 5, Horizon: time(60), SpikeEvery: time(6), SpikePages: 100}, ft)
	inj.Start()
	clock.RunFor(time(90))
	st := inj.Stats()
	if st.Spikes == 0 {
		t.Fatal("no spikes fired")
	}
	if st.BalloonPages != 10*st.Spikes || st.ClaimedPages != 90*st.Spikes || st.OOMKills != st.Spikes {
		t.Fatalf("outcome accumulation wrong: %+v", st)
	}
	if st.SpikeReleases != st.Spikes {
		t.Fatalf("%d spikes but %d releases", st.Spikes, st.SpikeReleases)
	}
}

func TestZeroIntervalsDisableFaultClasses(t *testing.T) {
	clock := simclock.New()
	ft := newFakeTarget(4)
	inj := New(clock, Config{Seed: 9, Horizon: time(60)}, ft)
	inj.Start()
	clock.RunFor(time(90))
	if len(ft.log) != 0 {
		t.Fatalf("events fired with all intervals zero: %v", ft.log)
	}
}

func TestStartTwicePanics(t *testing.T) {
	inj := New(simclock.New(), Config{Seed: 1}, newFakeTarget(2))
	inj.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	inj.Start()
}

func TestInstrumentExportsGauges(t *testing.T) {
	clock := simclock.New()
	ft := newFakeTarget(3)
	inj := New(clock, Config{Seed: 11, Horizon: time(60), KillEvery: time(5)}, ft)
	gauges := map[string]func() float64{}
	inj.Instrument(func(name string, fn func() float64) { gauges[name] = fn })
	inj.Start()
	clock.RunFor(time(90))
	if len(gauges) != 8 {
		t.Fatalf("%d gauges registered, want 8", len(gauges))
	}
	kills := gauges["faults.kills"]
	if kills == nil {
		t.Fatal("faults.kills gauge not registered")
	}
	if got := kills(); inj.Stats().Kills == 0 || uint64(got) != inj.Stats().Kills {
		t.Fatalf("gauge %v != stats %d", got, inj.Stats().Kills)
	}
}

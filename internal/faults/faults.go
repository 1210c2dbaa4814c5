// Package faults injects guest-lifecycle and memory-pressure faults into a
// running cluster on the simulated clock: guest kills with delayed restarts,
// host memory-demand spikes that degrade through balloon → swap → huge-page
// split and end in an OOM kill, and KSM daemon stalls. The schedule is
// derived entirely from a seed, so a chaos run is as reproducible as a
// fault-free one — the property every figure in this repository is built on.
//
// The injector knows nothing about hypervisors or scanners; it drives a
// Target. That keeps the package dependency-free (clock and metrics only)
// and lets tests script a fake cluster.
package faults

import (
	"fmt"

	"repro/internal/simclock"
)

// Config describes one fault schedule. Every interval is a mean: actual gaps
// are drawn uniformly from [0.5×, 1.5×] of it. A zero interval disables that
// fault class.
type Config struct {
	// Seed derives the entire schedule and all victim choices.
	Seed uint64
	// Horizon bounds event generation (0 = 10 virtual minutes). Events past
	// the end of the run simply never fire.
	Horizon simclock.Time

	// KillEvery is the mean gap between guest kills. A kill picks a uniform
	// victim among currently-alive guests, and is skipped (counted, not
	// retried) when at most one guest is alive — a host that kills its last
	// guest has no experiment left to run.
	KillEvery simclock.Time
	// RestartDelay is how long a killed guest stays down (0 = 3 s).
	RestartDelay simclock.Time

	// SpikeEvery is the mean gap between memory-demand spikes.
	SpikeEvery simclock.Time
	// SpikePages is the spike size in frames.
	SpikePages int
	// SpikeHold is how long a spike pins its frames (0 = 2 s).
	SpikeHold simclock.Time

	// StallEvery is the mean gap between KSM daemon stalls.
	StallEvery simclock.Time
	// StallFor is each stall's length (0 = 1 s).
	StallFor simclock.Time
}

func (cfg Config) withDefaults() Config {
	if cfg.Horizon == 0 {
		cfg.Horizon = 10 * simclock.Minute
	}
	if cfg.RestartDelay == 0 {
		cfg.RestartDelay = 3 * simclock.Second
	}
	if cfg.SpikeHold == 0 {
		cfg.SpikeHold = 2 * simclock.Second
	}
	if cfg.StallFor == 0 {
		cfg.StallFor = simclock.Second
	}
	return cfg
}

// SpikeOutcome reports how one memory-demand spike was served, in the
// degradation order the target applied: balloon reclaim first, then frame
// claims backed by swap-out and huge-page splits, then OOM kills for the
// remainder.
type SpikeOutcome struct {
	// BalloonPages were recovered by asking guests to shrink their caches.
	BalloonPages int
	// ClaimedPages were taken from the pool (evicting/splitting as needed).
	ClaimedPages int
	// OOMKills counts guests killed because the pool could not cover the
	// spike even after eviction.
	OOMKills int
}

// Target is the cluster surface the injector drives.
type Target interface {
	// Guests reports the number of guest slots (dead or alive).
	Guests() int
	// Alive reports whether the slot's guest is currently running.
	Alive(slot int) bool
	// Kill tears the slot's guest down.
	Kill(slot int)
	// Restart reboots a killed slot.
	Restart(slot int)
	// DemandSpike applies host memory pressure of the given size.
	DemandSpike(pages int) SpikeOutcome
	// ReleaseSpike releases all pressure previously applied by DemandSpike.
	ReleaseSpike()
	// StallScanner suspends the KSM daemon for d.
	StallScanner(d simclock.Time)
}

// Stats counts injected events.
type Stats struct {
	Kills         uint64
	KillsSkipped  uint64 // kill events with at most one guest alive
	Restarts      uint64
	Spikes        uint64
	SpikeReleases uint64
	Stalls        uint64
	OOMKills      uint64
	BalloonPages  uint64 // pages recovered via balloon across all spikes
	ClaimedPages  uint64 // frames claimed from the pool across all spikes
}

// Injector schedules and fires one fault schedule against one target.
type Injector struct {
	clock  *simclock.Clock
	cfg    Config
	target Target
	rng    splitmix
	stats  Stats

	started bool
}

// New creates an injector. Call Start to generate and schedule the events.
func New(clock *simclock.Clock, cfg Config, target Target) *Injector {
	return &Injector{
		clock:  clock,
		cfg:    cfg.withDefaults(),
		target: target,
		rng:    splitmix{state: cfg.Seed},
	}
}

// Stats returns a snapshot of event counters.
func (in *Injector) Stats() Stats { return in.stats }

// Start generates the full schedule from the seed and registers every event
// on the clock at absolute times relative to now. Victim selection happens
// at fire time (it depends on who is alive), but draws from the same
// deterministic stream, so a fixed seed yields a fixed fault history.
func (in *Injector) Start() {
	if in.started {
		panic("faults: Start called twice")
	}
	in.started = true
	in.schedule(in.cfg.KillEvery, in.fireKill)
	in.schedule(in.cfg.SpikeEvery, in.fireSpike)
	in.schedule(in.cfg.StallEvery, in.fireStall)
}

// schedule lays out one fault class's arrivals across the horizon.
func (in *Injector) schedule(every simclock.Time, fire func(now simclock.Time)) {
	if every <= 0 {
		return
	}
	for t := in.gap(every); t < in.cfg.Horizon; t += in.gap(every) {
		in.clock.Schedule(t, fire)
	}
}

// gap draws one inter-arrival time uniformly from [every/2, 3*every/2).
func (in *Injector) gap(every simclock.Time) simclock.Time {
	return every/2 + simclock.Time(in.rng.next()%uint64(every))
}

func (in *Injector) fireKill(now simclock.Time) {
	var alive []int
	for slot := 0; slot < in.target.Guests(); slot++ {
		if in.target.Alive(slot) {
			alive = append(alive, slot)
		}
	}
	if len(alive) <= 1 {
		in.stats.KillsSkipped++
		return
	}
	victim := alive[in.rng.next()%uint64(len(alive))]
	in.target.Kill(victim)
	in.stats.Kills++
	in.clock.Schedule(in.cfg.RestartDelay, func(simclock.Time) {
		if in.target.Alive(victim) {
			return // already rebooted by someone else
		}
		in.target.Restart(victim)
		in.stats.Restarts++
	})
}

func (in *Injector) fireSpike(now simclock.Time) {
	if in.cfg.SpikePages <= 0 {
		return
	}
	out := in.target.DemandSpike(in.cfg.SpikePages)
	in.stats.Spikes++
	in.stats.OOMKills += uint64(out.OOMKills)
	in.stats.BalloonPages += uint64(out.BalloonPages)
	in.stats.ClaimedPages += uint64(out.ClaimedPages)
	in.clock.Schedule(in.cfg.SpikeHold, func(simclock.Time) {
		in.target.ReleaseSpike()
		in.stats.SpikeReleases++
	})
}

func (in *Injector) fireStall(now simclock.Time) {
	in.target.StallScanner(in.cfg.StallFor)
	in.stats.Stalls++
}

// Instrument registers the per-event counters as gauges through gauge,
// which reads each read-only probe at every sample tick.
func (in *Injector) Instrument(gauge func(name string, fn func() float64)) {
	gauge("faults.kills", func() float64 { return float64(in.stats.Kills) })
	gauge("faults.kills_skipped", func() float64 { return float64(in.stats.KillsSkipped) })
	gauge("faults.restarts", func() float64 { return float64(in.stats.Restarts) })
	gauge("faults.spikes", func() float64 { return float64(in.stats.Spikes) })
	gauge("faults.stalls", func() float64 { return float64(in.stats.Stalls) })
	gauge("faults.oom_kills", func() float64 { return float64(in.stats.OOMKills) })
	gauge("faults.balloon_pages", func() float64 { return float64(in.stats.BalloonPages) })
	gauge("faults.claimed_pages", func() float64 { return float64(in.stats.ClaimedPages) })
}

// splitmix is a splitmix64 stream: tiny, seedable, and — unlike the global
// math/rand — owned by one injector, so concurrent chaos cells under -jobs
// cannot perturb each other's draws.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// String renders the stats for debug logs.
func (s Stats) String() string {
	return fmt.Sprintf("kills=%d (skipped %d) restarts=%d spikes=%d (oom %d) stalls=%d",
		s.Kills, s.KillsSkipped, s.Restarts, s.Spikes, s.OOMKills, s.Stalls)
}

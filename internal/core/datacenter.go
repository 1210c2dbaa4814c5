package core

import (
	"fmt"

	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// DatacenterRow is one cell of the datacenter sweep: one placement policy ×
// one migration wire protocol on the same faulted multi-host scenario.
type DatacenterRow struct {
	Hosts     int
	Guests    int
	Placement string
	Migration string

	// Migration ledger.
	Migrations    int
	Aborted       int
	PrecopyRounds int
	// WireMB is total bytes on the migration network in paper-scale MB —
	// the figure the content-addressed protocol exists to shrink.
	WireMB float64
	// DowntimeMaxMs is the worst stop-and-copy pause (virtual ms).
	DowntimeMaxMs float64

	// Fault history (host kills/drains force the scheduler's hand).
	HostKills     uint64
	HostDrains    uint64
	GuestKills    uint64
	GuestRestarts int

	// LeakChecks ran after every migration, abort, kill and restart;
	// LeakFailures must be zero.
	LeakChecks   int
	LeakFailures int

	// Traffic outcome: requests served vs lost to dead/paused guests.
	Served  int64
	Blocked int64
	// ClusterSavingMB is KSM saved memory summed over the surviving hosts,
	// in paper-scale MB.
	ClusterSavingMB float64
}

// DatacenterFigure is the datacenter experiment result.
type DatacenterFigure struct {
	ID    string
	Title string
	Rows  []DatacenterRow
}

// datacenterModes enumerates the sweep's wire-protocol axis.
var datacenterModes = []datacenter.MigrationMode{
	datacenter.MigrationOff,
	datacenter.MigrationNaive,
	datacenter.MigrationContent,
}

// datacenterPlacements enumerates the sweep's placement axis.
var datacenterPlacements = []datacenter.PlacementPolicy{
	datacenter.PlaceRoundRobin,
	datacenter.PlaceBySimilarity,
}

// Datacenter sweeps placement policy × migration mode over a multi-host
// cluster under a diurnal traffic model and a deterministic fault schedule
// (host drains the scheduler must evacuate, host kills it must recover
// from, guest kills it must restart). Every cell runs the same virtual
// span with a seed folded from the cell label, so rows are independent of
// execution order and the figure is byte-identical at every Jobs width.
func Datacenter(o Options) DatacenterFigure {
	hosts := o.DCHosts
	if hosts == 0 {
		hosts = 3
	}
	fig := DatacenterFigure{
		ID: "datacenter",
		Title: fmt.Sprintf("Placement × migration protocol on %d hosts under host faults (seed %d)",
			hosts, o.ChaosSeed),
	}
	var jobs []Job[DatacenterRow]
	for _, p := range datacenterPlacements {
		for _, m := range datacenterModes {
			jobs = append(jobs, Job[DatacenterRow]{
				Label: fmt.Sprintf("datacenter placement=%s migration=%s", p, m),
				Run:   func() DatacenterRow { return datacenterCell(o, hosts, p, m) },
			})
		}
	}
	fig.Rows = RunAll(o.runner(), jobs)
	return fig
}

// datacenterCell runs one datacenter under one placement × migration pair.
func datacenterCell(o Options, hosts int, p datacenter.PlacementPolicy, m datacenter.MigrationMode) DatacenterRow {
	horizon := 30 * simclock.Second
	if o.Quick {
		horizon = 12 * simclock.Second
	}
	cfg := datacenter.Config{
		Scale: o.scale(),
		Hosts: hosts,
		// Two workload families: similarity placement packs same-spec guests
		// together, which is what makes both the cluster KSM saving and the
		// content-addressed wire cheap.
		Specs:         []workload.Spec{workload.DayTrader(), workload.Tuscany()},
		SharedClasses: true,
		SharedAOT:     true,
		Placement:     p,
		Migration:     m,
		THPPolicy:     o.THPPolicy,
		NetGbps:       o.NetGbps,
		BaseSeed:      o.Seed,
		Horizon:       horizon,
		Faults: faults.Config{
			// The seed folds in the placement but NOT the migration mode:
			// the three protocol rows of one placement face the identical
			// fault storm, so their wire bills and downtime are directly
			// comparable.
			Seed:    uint64(mem.Combine(mem.Seed(o.ChaosSeed), mem.HashString(p.String()))),
			Horizon: horizon,
			// Intervals scale with the horizon so quick and full runs both
			// see guest churn, host failures and forced evacuations.
			KillEvery:      horizon / 2,
			HostKillEvery:  horizon * 3 / 4,
			HostDrainEvery: horizon / 4,
			StallEvery:     horizon / 3,
		},
	}
	dc := datacenter.New(cfg)
	dc.Run()

	st := dc.Stats()
	fst := dc.InjectorStats()
	return DatacenterRow{
		Hosts:           hosts,
		Guests:          dc.Cfg.Guests,
		Placement:       p.String(),
		Migration:       m.String(),
		Migrations:      st.Migrations,
		Aborted:         st.MigrationsAborted,
		PrecopyRounds:   st.PrecopyRounds,
		WireMB:          mb(dc.Net.Stats().TotalBytes(), dc.Cfg.Scale),
		DowntimeMaxMs:   float64(st.DowntimeMax) / float64(simclock.Millisecond),
		HostKills:       fst.HostKills,
		HostDrains:      fst.HostDrains,
		GuestKills:      fst.Kills,
		GuestRestarts:   st.GuestRestarts,
		LeakChecks:      st.LeakChecks,
		LeakFailures:    st.LeakFailures,
		Served:          st.RequestsServed,
		Blocked:         st.RequestsBlocked,
		ClusterSavingMB: mb(dc.ClusterSavedBytes(), dc.Cfg.Scale),
	}
}

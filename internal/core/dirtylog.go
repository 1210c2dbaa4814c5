package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// DirtyLogRow is one cell of the dirty-log sweep: one scan mode at one guest
// count under one churn rate, measured after the cluster has converged.
type DirtyLogRow struct {
	// Mode labels the row: "full" (linear scanner) or "incremental"
	// (dirty-ring rescans).
	Mode   string
	Guests int
	// ChurnPct is the share of each guest's RAM rewritten per measurement
	// interval (0 = idle guests).
	ChurnPct int
	// ScanPerInterval is the average pages the scanner examined per
	// measurement interval once converged — the rescan cost the tentpole
	// claims scales with churn, not cluster size.
	ScanPerInterval float64
	// RegisteredPages is the linear scanner's per-pass cost for comparison
	// (what a full pass must walk).
	RegisteredPages int
	// SharingMB is KSM saved memory at the end of measurement, proving
	// incremental mode kept the merges.
	SharingMB float64
	// DirtyDrained, RingOverflows and IncrementalRounds expose the ring
	// mechanics behind the cost (all zero in full mode).
	DirtyDrained      uint64
	RingOverflows     uint64
	IncrementalRounds uint64
	FullScans         uint64
}

// DirtyLogFigure is the dirtylog experiment result.
type DirtyLogFigure struct {
	ID    string
	Title string
	Rows  []DirtyLogRow
}

// dirtyLogMeasureIntervals is how many one-second intervals the converged
// measurement averages over.
const dirtyLogMeasureIntervals = 5

// DirtyLogSweep compares the converged rescan cost of the linear scanner
// against dirty-ring incremental mode across guest count × churn rate on the
// DayTrader scenario. After the standard warm-up and steady phases each cell
// runs idle-plus-churn measurement intervals: a churn writer rewrites the
// configured share of every guest's RAM, the clock advances one second, and
// the scanner's pages-scanned delta is recorded. The linear scanner walks
// all registered pages regardless of churn; incremental mode's cost tracks
// the dirtied set. The scan mode (Knobs.IncrementalScan) is the sweep's own
// axis; every other knob applies.
func DirtyLogSweep(o Options) DirtyLogFigure {
	fig := DirtyLogFigure{
		ID:    "dirtylog",
		Title: "Converged KSM rescan cost: linear vs dirty-ring incremental (DayTrader guests)",
	}
	modes := []struct {
		label       string
		incremental bool
	}{
		{"full", false},
		{"incremental", true},
	}
	var cells []cell[DirtyLogRow]
	for _, n := range []int{2, 4} {
		for _, churn := range []int{0, 2, 8} {
			for _, mode := range modes {
				cfg := o.clusterConfig([]workload.Spec{workload.DayTrader()}, n, true)
				cfg.IncrementalScan = mode.incremental
				cells = append(cells, cell[DirtyLogRow]{
					label: fmt.Sprintf("dirtylog n=%d churn=%d%% mode=%s", n, churn, mode.label),
					cfg:   cfg,
					measure: func(c *Cluster) DirtyLogRow {
						c.Run()
						scanned := measureConvergedScanRate(c, churn)
						kst := c.Scanner.Stats()
						return DirtyLogRow{
							Mode:              mode.label,
							Guests:            n,
							ChurnPct:          churn,
							ScanPerInterval:   scanned,
							RegisteredPages:   c.totalGuestPages(),
							SharingMB:         mb(kst.SavedBytes, c.Cfg.Scale),
							DirtyDrained:      kst.DirtyDrained,
							RingOverflows:     kst.RingOverflows,
							IncrementalRounds: kst.IncrementalRounds,
							FullScans:         kst.FullScans,
						}
					},
				})
			}
		}
	}
	fig.Rows = runCells(o, cells)
	return fig
}

// measureConvergedScanRate runs the measurement intervals on a cluster that
// has finished its steady phase and reports the average pages scanned per
// interval. Each interval rewrites churnPct percent of every guest's RAM
// with fresh interval-unique content — guest-side churn the scanner has to
// notice — then advances the clock one second.
func measureConvergedScanRate(c *Cluster, churnPct int) float64 {
	before := c.Scanner.Stats().PagesScanned
	for interval := 0; interval < dirtyLogMeasureIntervals; interval++ {
		for vi, vm := range c.Host.VMs() {
			dirty := vm.GuestPages() * churnPct / 100
			seed := mem.Combine(mem.Combine(mem.HashString("dirtylog-churn"),
				c.Cfg.BaseSeed), mem.Seed(vi<<16|interval))
			for p := 0; p < dirty; p++ {
				vm.FillGuestPage(uint64(p), mem.Combine(seed, mem.Seed(p)))
			}
		}
		c.Clock.RunFor(simclock.Second)
	}
	after := c.Scanner.Stats().PagesScanned
	return float64(after-before) / float64(dirtyLogMeasureIntervals)
}

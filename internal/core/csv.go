package core

import (
	"fmt"

	"repro/internal/report"
)

// Tabular forms of every figure, for CSV export (cmd/tpsim -csv) and
// machine-readable post-processing.

// MemFigureTable flattens a Fig. 2 / Fig. 4 result.
func MemFigureTable(f MemFigure) *report.Table {
	t := &report.Table{
		Title:   f.ID,
		Headers: []string{"vm", "java_mb", "other_mb", "kernel_mb", "vm_overhead_mb", "total_mb", "tps_saving_mb"},
	}
	for _, v := range f.VMs {
		t.AddRow(v.Name, v.JavaMB, v.OtherMB, v.KernelMB, v.OverheadMB, v.Total(), v.SavingsMB)
	}
	t.AddRow("TOTAL", "", "", "", "", f.TotalMB, f.TotalSavingsMB)
	return t
}

// JavaFigureTable flattens a Fig. 3 / Fig. 5 result.
func JavaFigureTable(f JavaFigure) *report.Table {
	t := &report.Table{
		Title:   f.ID,
		Headers: []string{"jvm", "pid", "category", "mapped_mb", "shared_mb"},
	}
	for _, bar := range f.Bars {
		for _, c := range bar.Cats {
			t.AddRow(bar.Label, bar.PID, c.Name, c.MappedMB, c.SharedMB)
		}
	}
	return t
}

// SweepFigureTable flattens a Fig. 7 / Fig. 8 result.
func SweepFigureTable(f SweepFigure) *report.Table {
	t := &report.Table{
		Title: f.ID,
		Headers: []string{"guest_vms",
			"default_min", "default_mean", "default_max", "default_sla_violated",
			"ours_min", "ours_mean", "ours_max", "ours_sla_violated"},
	}
	for _, p := range f.Points {
		t.AddRow(p.NumVMs,
			p.Default.Min, p.Default.Mean, p.Default.Max, fmt.Sprint(p.DefaultSLAViolated),
			p.Preloaded.Min, p.Preloaded.Mean, p.Preloaded.Max, fmt.Sprint(p.PreloadedSLAViolated))
	}
	return t
}

// The sweep figures' tables come from the column lists in render.go, so a
// column is declared once for both forms.

// THPFigureTable flattens the thp-tradeoff result.
func THPFigureTable(f THPFigure) *report.Table { return rowsTable(f.ID, thpColumns, f.Rows) }

// ChaosFigureTable flattens the chaos sweep result.
func ChaosFigureTable(f ChaosFigure) *report.Table { return rowsTable(f.ID, chaosColumns, f.Rows) }

// DatacenterFigureTable flattens the datacenter sweep result.
func DatacenterFigureTable(f DatacenterFigure) *report.Table {
	return rowsTable(f.ID, datacenterColumns, f.Rows)
}

// DirtyLogFigureTable flattens the dirtylog sweep result.
func DirtyLogFigureTable(f DirtyLogFigure) *report.Table {
	return rowsTable(f.ID, dirtyLogColumns, f.Rows)
}

// KSMShardFigureTable flattens the ksmshard sweep result.
func KSMShardFigureTable(f KSMShardFigure) *report.Table {
	return rowsTable(f.ID, ksmShardColumns, f.Rows)
}

// JITShareFigureTable flattens the jitshare sweep result.
func JITShareFigureTable(f JITShareFigure) *report.Table {
	return rowsTable(f.ID, jitShareColumns, f.Rows)
}

// PowerFigureTable flattens the Fig. 6 result.
func PowerFigureTable(f PowerFigure) *report.Table {
	t := &report.Table{
		Title:   f.ID,
		Headers: []string{"configuration", "before_mb", "after_mb", "saving_mb"},
	}
	t.AddRow("preloaded", f.Preload.BeforeMB, f.Preload.AfterMB, f.Preload.SavingMB())
	t.AddRow("not_preloaded", f.NoPreload.BeforeMB, f.NoPreload.AfterMB, f.NoPreload.SavingMB())
	t.AddRow("delta", "", "", f.DeltaMB())
	return t
}

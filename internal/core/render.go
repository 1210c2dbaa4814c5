package core

import (
	"fmt"
	"strings"

	"repro/internal/report"
)

// RenderMemFigure prints a Fig. 2 / Fig. 4 result: one stacked bar per VM
// plus the TPS savings column, in paper-scale MB.
func RenderMemFigure(f MemFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n\n", strings.ToUpper(f.ID), f.Title)
	var max float64
	for _, v := range f.VMs {
		if t := v.Total(); t > max {
			max = t
		}
	}
	for _, v := range f.VMs {
		b.WriteString(report.StackedBar(v.Name, []report.Segment{
			{Label: "java", Value: v.JavaMB},
			{Label: "other", Value: v.OtherMB},
			{Label: "kernel", Value: v.KernelMB},
			{Label: "vm", Value: v.OverheadMB},
		}, max, 48))
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-10s  saving by TPS in guest: %.0f MB\n", "", v.SavingsMB)
	}
	fmt.Fprintf(&b, "\nTotal physical memory used by guests: %.0f MB (TPS savings %.0f MB)\n",
		f.TotalMB, f.TotalSavingsMB)
	return b.String()
}

// RenderJavaFigure prints a Fig. 3 / Fig. 5 result: one stacked bar per JVM
// with the Table IV categories and the TPS-shared portion of each.
func RenderJavaFigure(f JavaFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n\n", strings.ToUpper(f.ID), f.Title)
	t := &report.Table{Headers: []string{"JVM", "Category", "Mapped MB", "Shared w/ TPS MB", "Shared %"}}
	for _, bar := range f.Bars {
		first := true
		for _, c := range bar.Cats {
			label := ""
			if first {
				label = fmt.Sprintf("%s (pid %d)", bar.Label, bar.PID)
				first = false
			}
			pct := 0.0
			if c.MappedMB > 0 {
				pct = 100 * c.SharedMB / c.MappedMB
			}
			t.AddRow(label, c.Name, fmt.Sprintf("%.1f", c.MappedMB), fmt.Sprintf("%.1f", c.SharedMB), fmt.Sprintf("%.1f", pct))
		}
		t.AddRow("", "TOTAL", fmt.Sprintf("%.1f", bar.TotalMapped()), fmt.Sprintf("%.1f", bar.TotalShared()), "")
	}
	b.WriteString(t.String())
	return b.String()
}

// RenderSweepFigure prints a Fig. 7 / Fig. 8 result with min/mean/max bars.
func RenderSweepFigure(f SweepFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n\n", strings.ToUpper(f.ID), f.Title)
	t := &report.Table{Headers: []string{
		"Guest VMs",
		"Default (" + f.Unit + ") min/mean/max", "",
		"Our approach (" + f.Unit + ") min/mean/max", "",
		"SLA",
	}}
	var max float64
	for _, p := range f.Points {
		if p.Default.Max > max {
			max = p.Default.Max
		}
		if p.Preloaded.Max > max {
			max = p.Preloaded.Max
		}
	}
	for _, p := range f.Points {
		sla := ""
		if p.DefaultSLAViolated {
			sla += "default:VIOLATED "
		}
		if p.PreloadedSLAViolated {
			sla += "ours:VIOLATED"
		}
		t.AddRow(
			fmt.Sprintf("%d", p.NumVMs),
			fmt.Sprintf("%.1f/%.1f/%.1f", p.Default.Min, p.Default.Mean, p.Default.Max),
			report.HBar(p.Default.Mean, max, 20),
			fmt.Sprintf("%.1f/%.1f/%.1f", p.Preloaded.Min, p.Preloaded.Mean, p.Preloaded.Max),
			report.HBar(p.Preloaded.Mean, max, 20),
			sla,
		)
	}
	b.WriteString(t.String())
	return b.String()
}

// column is one column of a sweep figure, declared once for both output
// forms: its header in the rendered report and in the CSV, and the cell.
// Cells use the report.Table defaults (floats to one decimal); textFmt
// overrides the rendered report's format where it differs from the CSV's,
// and a column without a report header appears in the CSV only.
type column[R any] struct {
	head, csvHead string
	cell          func(R) any
	textFmt       string
}

// renderRows prints a sweep figure: title line, one table row per cell, and
// the figure's closing note.
func renderRows[R any](id, title string, cols []column[R], rows []R, note string) string {
	t := &report.Table{}
	for _, c := range cols {
		if c.head != "" {
			t.Headers = append(t.Headers, c.head)
		}
	}
	for _, r := range rows {
		var cells []any
		for _, c := range cols {
			switch {
			case c.head == "":
			case c.textFmt != "":
				cells = append(cells, fmt.Sprintf(c.textFmt, c.cell(r)))
			default:
				cells = append(cells, c.cell(r))
			}
		}
		t.AddRow(cells...)
	}
	return fmt.Sprintf("%s — %s\n\n%s\n%s\n", strings.ToUpper(id), title, t, note)
}

// rowsTable flattens a sweep figure for CSV export.
func rowsTable[R any](id string, cols []column[R], rows []R) *report.Table {
	t := &report.Table{Title: id}
	for _, c := range cols {
		t.Headers = append(t.Headers, c.csvHead)
	}
	for _, r := range rows {
		cells := make([]any, len(cols))
		for i, c := range cols {
			cells[i] = c.cell(r)
		}
		t.AddRow(cells...)
	}
	return t
}

// thpColumns: one row per policy × guest-count cell with both axes of the
// THP-vs-KSM tension.
var thpColumns = []column[THPRow]{
	{head: "Guests", csvHead: "guests", cell: func(r THPRow) any { return r.Guests }},
	{head: "THP policy", csvHead: "policy", cell: func(r THPRow) any { return r.Policy }},
	{head: "Huge MB", csvHead: "huge_mb", cell: func(r THPRow) any { return r.HugeMB }},
	{head: "Huge %", csvHead: "huge_coverage_pct", cell: func(r THPRow) any { return r.HugeCoveragePct }},
	{head: "Est. TLB reach MB", csvHead: "tlb_reach_mb", cell: func(r THPRow) any { return r.TLBReachMB }},
	{head: "KSM saving MB", csvHead: "ksm_saving_mb", cell: func(r THPRow) any { return r.SharingMB }},
	{head: "Sharing pages", csvHead: "sharing_pages", cell: func(r THPRow) any { return r.SharingPages }},
	{head: "Collapses", csvHead: "collapses", cell: func(r THPRow) any { return r.Collapses }},
	{head: "Splits", csvHead: "splits", cell: func(r THPRow) any { return r.Splits }},
	{head: "Partial", csvHead: "partial_splits", cell: func(r THPRow) any { return r.PartialSplits }},
	{head: "Reabsorbs", csvHead: "reabsorbs", cell: func(r THPRow) any { return r.Reabsorbs }},
	{head: "KSM skips", csvHead: "ksm_skips", cell: func(r THPRow) any { return r.KSMSkips }},
}

// RenderTHPFigure prints the thp-tradeoff result.
func RenderTHPFigure(f THPFigure) string {
	return renderRows(f.ID, f.Title, thpColumns, f.Rows,
		"THP raises TLB reach by hiding 4 KB duplicates from KSM; ksm-split buys the sharing back; fhpm carves only the duplicate subpages and keeps the rest huge.")
}

// chaosColumns: one row per fault profile × guest count, with the fault
// history, the leak-invariant record, and the sharing that survived the
// churn.
var chaosColumns = []column[ChaosRow]{
	{head: "Guests", csvHead: "guests", cell: func(r ChaosRow) any { return r.Guests }},
	{head: "Profile", csvHead: "profile", cell: func(r ChaosRow) any { return r.Profile }},
	{head: "Kills", csvHead: "kills", cell: func(r ChaosRow) any { return r.Kills }},
	{head: "Skipped", csvHead: "kills_skipped", cell: func(r ChaosRow) any { return r.KillsSkipped }},
	{head: "Restarts", csvHead: "restarts", cell: func(r ChaosRow) any { return r.Restarts }},
	{head: "Spikes", csvHead: "spikes", cell: func(r ChaosRow) any { return r.Spikes }},
	{head: "OOM kills", csvHead: "oom_kills", cell: func(r ChaosRow) any { return r.OOMKills }},
	{head: "Stalls", csvHead: "stalls", cell: func(r ChaosRow) any { return r.Stalls }},
	{head: "Balloon pg", csvHead: "balloon_pages", cell: func(r ChaosRow) any { return r.BalloonPages }},
	{head: "Claimed pg", csvHead: "claimed_pages", cell: func(r ChaosRow) any { return r.ClaimedPages }},
	{head: "Leak checks", csvHead: "leak_checks", cell: func(r ChaosRow) any { return r.LeakChecks }},
	{head: "Leak fails", csvHead: "leak_failures", cell: func(r ChaosRow) any { return r.LeakFailures }},
	{head: "Alive", csvHead: "final_alive", cell: func(r ChaosRow) any { return r.FinalAlive }},
	{head: "KSM saving MB", csvHead: "ksm_saving_mb", cell: func(r ChaosRow) any { return r.SharingMB }},
	{head: "Major faults", csvHead: "major_faults", cell: func(r ChaosRow) any { return r.MajorFaults }},
	{head: "Swap-outs", csvHead: "swap_outs", cell: func(r ChaosRow) any { return r.SwapOuts }},
}

// RenderChaosFigure prints the chaos sweep.
func RenderChaosFigure(f ChaosFigure) string {
	return renderRows(f.ID, f.Title, chaosColumns, f.Rows,
		"Every kill/restart runs the leak invariant; a non-zero 'Leak fails' column is a bug.")
}

// datacenterColumns: one row per placement policy × migration protocol, with
// the migration ledger, the wire bill, and the cluster-wide sharing that
// survived the faults.
var datacenterColumns = []column[DatacenterRow]{
	{head: "Hosts", csvHead: "hosts", cell: func(r DatacenterRow) any { return r.Hosts }},
	{head: "Guests", csvHead: "guests", cell: func(r DatacenterRow) any { return r.Guests }},
	{head: "Placement", csvHead: "placement", cell: func(r DatacenterRow) any { return r.Placement }},
	{head: "Migration", csvHead: "migration", cell: func(r DatacenterRow) any { return r.Migration }},
	{head: "Moves", csvHead: "migrations", cell: func(r DatacenterRow) any { return r.Migrations }},
	{head: "Aborted", csvHead: "aborted", cell: func(r DatacenterRow) any { return r.Aborted }},
	{head: "Rounds", csvHead: "precopy_rounds", cell: func(r DatacenterRow) any { return r.PrecopyRounds }},
	{head: "Wire MB", csvHead: "wire_mb", cell: func(r DatacenterRow) any { return r.WireMB }},
	{head: "Downtime ms", csvHead: "downtime_max_ms", cell: func(r DatacenterRow) any { return r.DowntimeMaxMs }, textFmt: "%.2f"},
	{head: "Host kills", csvHead: "host_kills", cell: func(r DatacenterRow) any { return r.HostKills }},
	{head: "Drains", csvHead: "host_drains", cell: func(r DatacenterRow) any { return r.HostDrains }},
	{head: "Kills", csvHead: "guest_kills", cell: func(r DatacenterRow) any { return r.GuestKills }},
	{head: "Restarts", csvHead: "guest_restarts", cell: func(r DatacenterRow) any { return r.GuestRestarts }},
	{head: "Leak checks", csvHead: "leak_checks", cell: func(r DatacenterRow) any { return r.LeakChecks }},
	{head: "Leak fails", csvHead: "leak_failures", cell: func(r DatacenterRow) any { return r.LeakFailures }},
	{head: "Served", csvHead: "served", cell: func(r DatacenterRow) any { return r.Served }},
	{head: "Blocked", csvHead: "blocked", cell: func(r DatacenterRow) any { return r.Blocked }},
	{head: "Cluster KSM MB", csvHead: "cluster_ksm_mb", cell: func(r DatacenterRow) any { return r.ClusterSavingMB }},
}

// RenderDatacenterFigure prints the datacenter sweep.
func RenderDatacenterFigure(f DatacenterFigure) string {
	return renderRows(f.ID, f.Title, datacenterColumns, f.Rows,
		"Content-addressed rows bill only never-seen literal bytes; descriptors ride at 16 B/page.")
}

// dirtyLogColumns: one row per mode × guest count × churn rate with the
// converged per-interval rescan cost.
var dirtyLogColumns = []column[DirtyLogRow]{
	{head: "Guests", csvHead: "guests", cell: func(r DirtyLogRow) any { return r.Guests }},
	{head: "Churn %", csvHead: "churn_pct", cell: func(r DirtyLogRow) any { return r.ChurnPct }},
	{head: "Mode", csvHead: "mode", cell: func(r DirtyLogRow) any { return r.Mode }},
	{head: "Scan pages/interval", csvHead: "scan_pages_per_interval", cell: func(r DirtyLogRow) any { return r.ScanPerInterval }, textFmt: "%.0f"},
	{head: "Registered pages", csvHead: "registered_pages", cell: func(r DirtyLogRow) any { return r.RegisteredPages }},
	{head: "KSM saving MB", csvHead: "ksm_saving_mb", cell: func(r DirtyLogRow) any { return r.SharingMB }},
	{head: "Dirty drained", csvHead: "dirty_drained", cell: func(r DirtyLogRow) any { return r.DirtyDrained }},
	{head: "Ring overflows", csvHead: "ring_overflows", cell: func(r DirtyLogRow) any { return r.RingOverflows }},
	{head: "Inc rounds", csvHead: "incremental_rounds", cell: func(r DirtyLogRow) any { return r.IncrementalRounds }},
	{head: "Full scans", csvHead: "full_scans", cell: func(r DirtyLogRow) any { return r.FullScans }},
}

// RenderDirtyLogFigure prints the dirtylog sweep.
func RenderDirtyLogFigure(f DirtyLogFigure) string {
	return renderRows(f.ID, f.Title, dirtyLogColumns, f.Rows,
		"The linear scanner's converged cost tracks registered pages; incremental mode's tracks churn.")
}

// ksmShardColumns: one row per workload × shard count, outcomes identical
// down the shard axis with the per-shard work split alongside.
var ksmShardColumns = []column[KSMShardRow]{
	{head: "Workload", csvHead: "workload", cell: func(r KSMShardRow) any { return r.Workload }},
	{head: "Guests", csvHead: "guests", cell: func(r KSMShardRow) any { return r.Guests }},
	{head: "Shards", csvHead: "shards", cell: func(r KSMShardRow) any { return r.Shards }},
	{head: "KSM saving MB", csvHead: "ksm_saving_mb", cell: func(r KSMShardRow) any { return r.SharingMB }},
	{head: "Merges", csvHead: "merges", cell: func(r KSMShardRow) any { return r.Merges }},
	{head: "Pages scanned", csvHead: "pages_scanned", cell: func(r KSMShardRow) any { return r.PagesScanned }},
	{head: "Full scans", csvHead: "full_scans", cell: func(r KSMShardRow) any { return r.FullScans }},
	{head: "Scan CPU %", csvHead: "scan_cpu_pct", cell: func(r KSMShardRow) any { return r.ScanCPUPct }},
	{head: "Per-shard scanned", csvHead: "shard_pages_scanned", cell: func(r KSMShardRow) any { return shardSplit(r.ShardPagesScanned) }},
}

// RenderKSMShardFigure prints the ksmshard sweep.
func RenderKSMShardFigure(f KSMShardFigure) string {
	return renderRows(f.ID, f.Title, ksmShardColumns, f.Rows,
		"Outcome columns are identical at every shard count; sharding buys scan-pass wall time (BENCH_ksmshard.json), never different merges.")
}

// shardSplit formats a per-shard counter vector as "a/b/c".
func shardSplit(counts []uint64) string {
	var b strings.Builder
	for i, c := range counts {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// jitShareColumns: one row per workload × sharing mode with the code-area
// sharing ratio after warm-up and at the end of steady state.
var jitShareColumns = []column[JITShareRow]{
	{head: "Workload", csvHead: "workload", cell: func(r JITShareRow) any { return r.Workload }},
	{head: "Mode", csvHead: "mode", cell: func(r JITShareRow) any { return r.Mode }},
	{head: "Guests", csvHead: "guests", cell: func(r JITShareRow) any { return r.Guests }},
	{head: "JVMs/guest", csvHead: "jvms_per_guest", cell: func(r JITShareRow) any { return r.JVMs }},
	{head: "Code mapped MB", csvHead: "code_mapped_mb", cell: func(r JITShareRow) any { return r.CodeMappedMB }},
	{head: "Code shared MB", csvHead: "code_shared_mb", cell: func(r JITShareRow) any { return r.CodeSharedMB }},
	{head: "Ratio warm %", csvHead: "ratio_warm_pct", cell: func(r JITShareRow) any { return r.RatioWarmPct }},
	{head: "Ratio end %", csvHead: "ratio_end_pct", cell: func(r JITShareRow) any { return r.RatioEndPct }},
	{head: "Stub MB", csvHead: "stub_mapped_mb", cell: func(r JITShareRow) any { return r.StubMappedMB }},
	{csvHead: "stub_shared_mb", cell: func(r JITShareRow) any { return r.StubSharedMB }},
	{head: "Archive pages", csvHead: "archive_pages", cell: func(r JITShareRow) any { return r.ArchivePages }},
	{head: "Merged warm", csvHead: "merged_warm", cell: func(r JITShareRow) any { return r.MergedWarm }},
	{head: "Merged end", csvHead: "merged_end", cell: func(r JITShareRow) any { return r.MergedEnd }},
	{head: "COW-broken", csvHead: "cow_broken_pages", cell: func(r JITShareRow) any { return r.COWBroken }},
	{head: "Archived", csvHead: "archived_methods", cell: func(r JITShareRow) any { return r.ArchivedMethods }},
	{head: "Overflow", csvHead: "overflow_methods", cell: func(r JITShareRow) any { return r.OverflowMethods }},
	{head: "Re-JITs", csvHead: "rejits", cell: func(r JITShareRow) any { return r.ReJITs }},
	{head: "KSM saving MB", csvHead: "ksm_saving_mb", cell: func(r JITShareRow) any { return r.KSMSavingMB }},
}

// RenderJITShareFigure prints the jitshare sweep.
func RenderJITShareFigure(f JITShareFigure) string {
	return renderRows(f.ID, f.Title, jitShareColumns, f.Rows,
		"PIC bodies merge across processes; tier-2 re-JITs rewrite canonical slots and the ratio decays from warm to end.")
}

// RenderPowerFigure prints the Fig. 6 result.
func RenderPowerFigure(f PowerFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n\n", strings.ToUpper(f.ID), f.Title)
	t := &report.Table{Headers: []string{"Configuration", "Just after starting WAS (MB)", "After page sharing (MB)", "Saving (MB)"}}
	t.AddRow("Classes preloaded", fmt.Sprintf("%.1f", f.Preload.BeforeMB), fmt.Sprintf("%.1f", f.Preload.AfterMB), fmt.Sprintf("%.1f", f.Preload.SavingMB()))
	t.AddRow("Classes not preloaded", fmt.Sprintf("%.1f", f.NoPreload.BeforeMB), fmt.Sprintf("%.1f", f.NoPreload.AfterMB), fmt.Sprintf("%.1f", f.NoPreload.SavingMB()))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nIncreased sharing by preloading: %.1f MB (paper: 181.0 MB)\n", f.DeltaMB())
	return b.String()
}

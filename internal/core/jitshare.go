package core

import (
	"fmt"

	"repro/internal/jvm"
	"repro/internal/workload"
)

// JITShareRow is one cell of the jitshare sweep: one sharing mode on one
// workload scenario, measured after warm-up and again after steady state so
// the re-JIT decay is visible.
type JITShareRow struct {
	// Workload labels the scenario; Mode is "off" (the paper's measured
	// behaviour: all JIT output private) or "pic" (ShareJIT
	// position-independent bodies in the shared archive).
	Workload string
	Mode     string
	Guests   int
	// JVMs is the number of Java processes per guest.
	JVMs int
	// CodeMappedMB / CodeSharedMB are the end-state CatJITCode totals over
	// all JVMs (paper-scale MB); RatioWarmPct and RatioEndPct are the
	// code-area sharing ratios (shared/mapped) right after warm-up and at
	// the end of steady state — the gap is the re-JIT decay.
	CodeMappedMB float64
	CodeSharedMB float64
	RatioWarmPct float64
	RatioEndPct  float64
	// StubMappedMB / StubSharedMB are the CatJITData profile-stub totals
	// (stubs are per-process and churning, so StubSharedMB stays ≈0 — the
	// point of the split).
	StubMappedMB float64
	StubSharedMB float64
	// ArchivePages / MergedWarm / MergedEnd / COWBroken are the census
	// counts over every process's archive mapping: resident merge
	// candidates, those KSM actually merged at each measurement point, and
	// the canonical pages permanently invalidated by re-JIT writes.
	ArchivePages int
	MergedWarm   int
	MergedEnd    int
	COWBroken    int
	// ArchivedMethods / OverflowMethods / ReJITs sum the JIT counters over
	// all processes.
	ArchivedMethods int
	OverflowMethods int
	ReJITs          int
	// KSMSavingMB is total scanner saving at the end (paper-scale MB).
	KSMSavingMB float64
}

// JITShareFigure is the jitshare experiment result.
type JITShareFigure struct {
	ID    string
	Title string
	Rows  []JITShareRow
}

// JITShareSweep measures the code-area sharing ratio with and without the
// ShareJIT archive on the DayTrader and Tuscany multi-JVM scenarios — the
// experiment the paper couldn't run, since the measured J9 had no way to
// make JIT output position-independent. Class preloading is on in every
// cell so the only axis is the code area. The sharing mode (Knobs.JITShare)
// is the sweep's own axis; every other knob applies.
func JITShareSweep(o Options) JITShareFigure {
	fig := JITShareFigure{
		ID:    "jitshare",
		Title: "Code-area TPS sharing: private JIT output vs ShareJIT PIC archive",
	}
	scenarios := []struct {
		name   string
		spec   workload.Spec
		guests int
		jvms   int
	}{
		// The paper's main scenario, and the Tuscany multi-JVM case where
		// several processes per guest multiply the identical code mappings.
		{"daytrader", workload.DayTrader(), 2, 1},
		{"tuscany", workload.Tuscany(), 3, 2},
	}
	modes := []struct {
		label string
		share bool
	}{
		{"off", false},
		{"pic", true},
	}
	var cells []cell[JITShareRow]
	for _, sc := range scenarios {
		for _, mode := range modes {
			cfg := o.clusterConfig([]workload.Spec{sc.spec}, sc.guests, true)
			cfg.JVMsPerGuest = sc.jvms
			cfg.JITShare = mode.share
			cells = append(cells, cell[JITShareRow]{
				label:   fmt.Sprintf("jitshare %s x%d mode=%s", sc.name, sc.guests, mode.label),
				cfg:     cfg,
				measure: func(c *Cluster) JITShareRow { return jitShareRow(c, sc.name, mode.label) },
			})
		}
	}
	fig.Rows = runCells(o, cells)
	return fig
}

// jitShareRow runs one built cell, measuring the code area after warm-up and
// again after steady state.
func jitShareRow(c *Cluster, workload, mode string) JITShareRow {
	c.RunWarmup()
	warmRatio, _, _ := codeSharing(c)
	warmCensus := c.JITShareCensus()
	c.RunSteady()
	endRatio, codeMapped, codeShared := codeSharing(c)
	endCensus := c.JITShareCensus()

	row := JITShareRow{
		Workload:     workload,
		Mode:         mode,
		Guests:       c.GuestSlots(),
		JVMs:         c.Cfg.JVMsPerGuest,
		CodeMappedMB: mb(codeMapped, c.Cfg.Scale),
		CodeSharedMB: mb(codeShared, c.Cfg.Scale),
		RatioWarmPct: warmRatio * 100,
		RatioEndPct:  endRatio * 100,
		ArchivePages: endCensus.Shareable,
		MergedWarm:   warmCensus.Merged,
		MergedEnd:    endCensus.Merged,
		KSMSavingMB:  mb(c.Scanner.Stats().SavedBytes, c.Cfg.Scale),
	}
	a := c.Analyze()
	for _, jb := range a.JavaBreakdowns() {
		cu := jb.ByCat[jvm.CatJITData]
		row.StubMappedMB += mb(cu.MappedBytes, c.Cfg.Scale)
		row.StubSharedMB += mb(cu.SharedBytes, c.Cfg.Scale)
	}
	for _, w := range c.Workers {
		st := w.JVM.JIT().Stats()
		row.ArchivedMethods += st.ArchivedMethods
		row.OverflowMethods += st.OverflowMethods
		row.ReJITs += st.ReJITs
		row.COWBroken += st.CanonicalPagesInvalidated
	}
	return row
}

// codeSharing reports the cluster-wide code-area sharing ratio
// (CatJITCode shared/mapped over every JVM) plus the raw byte totals, via
// the standard read-only analysis walk.
func codeSharing(c *Cluster) (ratio float64, mapped, shared int64) {
	a := c.Analyze()
	for _, jb := range a.JavaBreakdowns() {
		cu := jb.ByCat[jvm.CatJITCode]
		mapped += cu.MappedBytes
		shared += cu.SharedBytes
	}
	if mapped > 0 {
		ratio = float64(shared) / float64(mapped)
	}
	return ratio, mapped, shared
}

package core

import (
	"fmt"

	"repro/internal/thp"
	"repro/internal/workload"
)

// THPRow is one cell of the THP-vs-KSM tradeoff sweep: one policy at one
// guest count, with both axes of the tradeoff in paper-scale units.
type THPRow struct {
	// Policy labels the row: "never", "madvise", "always", "ksm-split"
	// (always + KSM splitting whole huge pages over duplicates), or "fhpm"
	// (fine-grained per-subpage split/promote).
	Policy string
	Guests int
	// HugeMB is guest memory backed by huge mappings; HugeCoveragePct is its
	// share of all attributed guest memory.
	HugeMB          float64
	HugeCoveragePct float64
	// TLBReachMB estimates how much memory a fixed-size TLB covers under the
	// resulting page-size mix (memanalysis.EstimatedTLBReachBytes).
	TLBReachMB float64
	// SharingMB is KSM saved memory (the paper's TPS savings axis);
	// SharingPages is the raw pages_sharing count behind it.
	SharingMB    float64
	SharingPages int
	// Collapses and Splits count huge-page lifecycle events; KSMSkips counts
	// scan candidates KSM had to pass over because a huge mapping hid them —
	// the "sharing lost" side of the ledger.
	Collapses uint64
	Splits    uint64
	KSMSkips  uint64
	// PartialSplits counts subpages carved out of huge blocks one at a time
	// (FHPM demotions plus KSM's per-subpage duplicate splits); Reabsorbs
	// counts quiesced blocks promoted back to a full huge mapping.
	PartialSplits uint64
	Reabsorbs     uint64
}

// THPFigure is the thp-tradeoff experiment result.
type THPFigure struct {
	ID    string
	Title string
	Rows  []THPRow
}

// thpPolicies enumerates the sweep's policy axis. "madvise" equals "always"
// for guest RAM (QEMU madvises it MADV_HUGEPAGE) and serves as that very
// sanity check.
var thpPolicies = []struct {
	label  string
	policy thp.Policy
	split  bool
}{
	{"never", thp.PolicyNever, false},
	{"madvise", thp.PolicyMadvise, false},
	{"always", thp.PolicyAlways, false},
	{"ksm-split", thp.PolicyAlways, true},
	{"fhpm", thp.PolicyFHPM, false},
}

// THPTradeoff sweeps THP policy × guest count on the DayTrader scenario and
// reports both axes of the huge-page/page-sharing tension: under "always"
// khugepaged claims dense runs before KSM's two-sighting gate can merge out
// of them, trading TPS savings for TLB reach; "ksm-split" buys most of the
// sharing back by dissolving huge pages over verified duplicates. The policy
// (Knobs.THPPolicy and THPKSMSplit) is the sweep's own axis; every other
// knob applies.
func THPTradeoff(o Options) THPFigure {
	fig := THPFigure{
		ID:    "thp-tradeoff",
		Title: "THP huge-page coverage vs KSM sharing (DayTrader guests)",
	}
	var cells []cell[THPRow]
	for _, n := range []int{2, 4} {
		for _, pol := range thpPolicies {
			cfg := o.clusterConfig([]workload.Spec{workload.DayTrader()}, n, true)
			cfg.THPPolicy, cfg.THPKSMSplit = pol.policy, pol.split
			cells = append(cells, cell[THPRow]{
				label:   fmt.Sprintf("thp-tradeoff n=%d policy=%s", n, pol.label),
				cfg:     cfg,
				measure: func(c *Cluster) THPRow { return thpRow(c, pol.label) },
			})
		}
	}
	fig.Rows = runCells(o, cells)
	return fig
}

// thpRow runs one built cell and reads both axes of the tradeoff off it.
func thpRow(c *Cluster, policy string) THPRow {
	c.Run()
	a := c.Analyze()
	huge, base := a.FrameSizeCounts()
	kst := c.Scanner.Stats()
	tst := c.THP.Stats()
	scale := c.Cfg.Scale
	ps := int64(c.Host.PageSize())
	row := THPRow{
		Policy:        policy,
		Guests:        c.GuestSlots(),
		HugeMB:        mb(int64(huge)*ps, scale),
		TLBReachMB:    mb(a.EstimatedTLBReachBytes(), scale),
		SharingMB:     mb(kst.SavedBytes, scale),
		SharingPages:  kst.PagesSharing,
		Collapses:     tst.Collapses,
		Splits:        tst.Splits,
		KSMSkips:      kst.HugeSkips,
		PartialSplits: tst.PartialSplits,
		Reabsorbs:     tst.Reabsorbs,
	}
	if huge+base > 0 {
		row.HugeCoveragePct = 100 * float64(huge) / float64(huge+base)
	}
	return row
}

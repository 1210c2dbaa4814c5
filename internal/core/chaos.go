package core

import (
	"fmt"

	"repro/internal/balloon"
	"repro/internal/faults"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// ChaosRow is one cell of the chaos sweep: one fault profile at one guest
// count, with the fault history and the sharing that survived it.
type ChaosRow struct {
	Guests  int
	Profile string

	// Fault history.
	Kills        uint64
	KillsSkipped uint64
	Restarts     uint64
	Spikes       uint64
	OOMKills     uint64
	Stalls       uint64
	// BalloonPages / ClaimedPages are the spikes' degradation ledger: pages
	// recovered from guest caches vs frames taken via eviction.
	BalloonPages uint64
	ClaimedPages uint64

	// LeakChecks ran after every kill, restart and OOM kill plus once at the
	// end; LeakFailures must be zero.
	LeakChecks   int
	LeakFailures int

	// FinalAlive is how many guests survived to the end of the run.
	FinalAlive int
	// SharingMB is KSM saved memory at the end, in paper-scale MB — how much
	// sharing the host recovered after all the churn.
	SharingMB   float64
	MajorFaults uint64
	SwapOuts    uint64
}

// ChaosFigure is the chaos experiment result.
type ChaosFigure struct {
	ID    string
	Title string
	Rows  []ChaosRow
}

// chaosProfile scales fault pressure. Intervals are virtual time; spike size
// is a fraction of host RAM.
type chaosProfile struct {
	label      string
	killEvery  simclock.Time
	spikeEvery simclock.Time
	stallEvery simclock.Time
	// spikeFrac divides the host's total frames to size each demand spike.
	spikeFrac int
}

// chaosProfiles enumerates the sweep's fault-rate axis.
var chaosProfiles = []chaosProfile{
	{label: "calm", killEvery: 30 * simclock.Second, spikeEvery: 12 * simclock.Second,
		stallEvery: 20 * simclock.Second, spikeFrac: 16},
	{label: "stormy", killEvery: 8 * simclock.Second, spikeEvery: 5 * simclock.Second,
		stallEvery: 10 * simclock.Second, spikeFrac: 8},
}

// chaos sweeps fault profiles × guest counts on the DayTrader scenario with
// shared class caches: guests are killed and restarted, the host absorbs
// memory-demand spikes through the balloon → swap/huge-split → OOM-kill
// degradation, and the KSM daemon is stalled — all on a deterministic,
// seed-driven schedule (Options.ChaosSeed). After every lifecycle event the
// leak invariant is checked; the row records any failure. Cells are
// independent cluster runs and fan out across Options.Jobs with
// submission-order collection, so output is byte-identical at every width.
func chaos(inv *invocation) ChaosFigure {
	o := inv.o
	fig := ChaosFigure{
		ID:    "chaos",
		Title: fmt.Sprintf("Guest churn and memory pressure under fault injection (seed %d)", o.ChaosSeed),
	}
	var cells []cell
	for _, n := range []int{2, 4} {
		for _, p := range chaosProfiles {
			label := fmt.Sprintf("chaos n=%d profile=%s", n, p.label)
			cells = append(cells, clusterCell(label, o.clusterConfig([]workload.Spec{workload.DayTrader()}, n, true),
				func(c *Cluster) ChaosRow { return chaosCell(c, o.ChaosSeed, p, label) }))
		}
	}
	fig.Rows = runCells[ChaosRow](inv, cells)
	return fig
}

// chaosCell runs one built cluster under one fault profile.
func chaosCell(c *Cluster, chaosSeed uint64, p chaosProfile, label string) ChaosRow {
	h := newChaosHarness(c)
	inj := faults.New(c.Clock, faults.Config{
		// Each cell draws from its own stream: the seed folds in the cell
		// label so rows are independent of execution order and of each other.
		Seed:       uint64(mem.Combine(mem.Seed(chaosSeed), mem.HashString(label))),
		KillEvery:  p.killEvery,
		SpikeEvery: p.spikeEvery,
		StallEvery: p.stallEvery,
		SpikePages: c.Host.Phys().TotalFrames() / p.spikeFrac,
	}, h)
	if c.telemetry != nil {
		inj.Instrument(c.telemetry.gauge)
	}
	inj.Start()
	c.Run()

	// End of run: let any outstanding spike go and close the books.
	h.ReleaseSpike()
	h.leakCheck()

	st := inj.Stats()
	kst := c.Scanner.Stats()
	hst := c.Host.Stats()
	alive := 0
	for i := 0; i < c.GuestSlots(); i++ {
		if c.GuestAlive(i) {
			alive++
		}
	}
	return ChaosRow{
		Guests:       c.GuestSlots(),
		Profile:      p.label,
		Kills:        st.Kills,
		KillsSkipped: st.KillsSkipped,
		Restarts:     st.Restarts,
		Spikes:       st.Spikes,
		OOMKills:     st.OOMKills,
		Stalls:       st.Stalls,
		BalloonPages: st.BalloonPages,
		ClaimedPages: st.ClaimedPages,
		LeakChecks:   h.leakChecks,
		LeakFailures: h.leakFailures,
		FinalAlive:   alive,
		SharingMB:    mb(kst.SavedBytes, c.Cfg.Scale),
		MajorFaults:  hst.MajorFaults,
		SwapOuts:     hst.SwapOuts,
	}
}

// chaosHarness adapts a Cluster to faults.Target, applying the paper-world
// degradation order for demand spikes — balloon (guests shrink caches) →
// swap and huge-page splits (the evictor) → OOM kill (largest guest) — and
// running the leak invariant after every lifecycle event.
type chaosHarness struct {
	c       *Cluster
	balloon *balloon.Manager
	// oomPolicy picks the OOM victim among live VMs (default VictimLargest).
	oomPolicy hypervisor.OOMPolicy

	leakChecks   int
	leakFailures int
}

func newChaosHarness(c *Cluster) *chaosHarness {
	h := &chaosHarness{
		c:         c,
		balloon:   balloon.NewManager(c.Host, c.Kernels),
		oomPolicy: hypervisor.VictimLargest,
	}
	if c.Host.DirtyLogEnabled() {
		// With dirty logging on, the scanner's drain observations give every
		// guest a working-set estimate; kill the coldest instead of the
		// largest so reclaim destroys the least cached value.
		h.oomPolicy = hypervisor.VictimColdest
	}
	return h
}

// leakCheck asserts the leak invariant, recording rather than failing so the
// sweep reports breakage as data.
func (h *chaosHarness) leakCheck() {
	h.leakChecks++
	if err := h.c.CheckLeaks(); err != nil {
		h.leakFailures++
	}
}

func (h *chaosHarness) Guests() int         { return h.c.GuestSlots() }
func (h *chaosHarness) Alive(slot int) bool { return h.c.GuestAlive(slot) }

func (h *chaosHarness) Kill(slot int) {
	// Detach the kernel from the balloon manager BEFORE the hypervisor
	// reclaims its pages: a reclaim between teardown and drop would be
	// driven against a guest whose memory no longer exists.
	if k := h.c.GuestKernel(slot); k != nil {
		h.balloon.DropGuest(k)
	}
	h.c.KillGuest(slot)
	h.leakCheck()
}

func (h *chaosHarness) Restart(slot int) {
	if k := h.c.RestartGuest(slot); k != nil {
		h.balloon.AddGuest(k)
	}
	h.leakCheck()
}

func (h *chaosHarness) DemandSpike(pages int) faults.SpikeOutcome {
	var out faults.SpikeOutcome
	// 1. Balloon: ask the guests to give back page cache first (cheap).
	out.BalloonPages = h.balloon.ReclaimPages(pages)
	// 2./3. Claim from the pool: the evictor swaps cold private pages and
	// splits cold huge mappings on the way.
	got := h.c.Host.ClaimFrames(pages)
	// 4. OOM: the spike still cannot be served — kill the largest guest
	// (pluggable policy) and retry until it fits or nobody is left.
	for got < pages {
		victim := h.oomPolicy(h.c.Host.VMs())
		if victim == nil {
			break
		}
		slot := h.slotOf(victim)
		if slot < 0 {
			break
		}
		h.Kill(slot)
		out.OOMKills++
		got += h.c.Host.ClaimFrames(pages - got)
	}
	out.ClaimedPages = got
	return out
}

// slotOf maps a VM process back to its guest slot.
func (h *chaosHarness) slotOf(vm *hypervisor.VMProcess) int {
	for i := 0; i < h.c.GuestSlots(); i++ {
		if h.c.GuestAlive(i) && h.c.GuestVM(i) == vm {
			return i
		}
	}
	return -1
}

func (h *chaosHarness) ReleaseSpike() {
	h.c.Host.ReleaseClaimed()
}

func (h *chaosHarness) StallScanner(d simclock.Time) {
	h.c.Scanner.Stall(d)
}

package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// TestChaosInjectsAndNeverLeaks asserts the sweep actually exercises the
// lifecycle paths (kills, spikes, stalls all fire somewhere) and that every
// leak check over every cell passed.
func TestChaosInjectsAndNeverLeaks(t *testing.T) {
	fig := figureOf[ChaosFigure](t, "chaos")
	if len(fig.Rows) == 0 {
		t.Fatal("empty sweep")
	}
	var kills, spikes, stalls, checks uint64
	for _, r := range fig.Rows {
		kills += r.Kills
		spikes += r.Spikes
		stalls += r.Stalls
		checks += uint64(r.LeakChecks)
		if r.LeakFailures != 0 {
			t.Fatalf("row n=%d profile=%s: %d leak failures", r.Guests, r.Profile, r.LeakFailures)
		}
		if r.LeakChecks == 0 {
			t.Fatalf("row n=%d profile=%s ran no leak checks", r.Guests, r.Profile)
		}
		if r.FinalAlive == 0 {
			t.Fatalf("row n=%d profile=%s ended with no guests", r.Guests, r.Profile)
		}
		if r.Kills != 0 && r.SharingMB <= 0 {
			t.Fatalf("row n=%d profile=%s: churn erased all sharing (%f MB)", r.Guests, r.Profile, r.SharingMB)
		}
	}
	if kills == 0 || spikes == 0 || stalls == 0 {
		t.Fatalf("fault classes missing from the sweep: kills=%d spikes=%d stalls=%d", kills, spikes, stalls)
	}
}

// TestChaosSeedChangesHistory: different seeds must produce different fault
// histories (the schedule is seed-driven, not time-driven).
func TestChaosSeedChangesHistory(t *testing.T) {
	o := testOptions(1)
	o.ChaosSeed++
	if seq, _ := runMemo(t, "chaos"); seq.CSV == ChaosFigureTable(chaos(newInvocation(o))).CSV() {
		t.Fatalf("seeds %d and %d produced identical chaos sweeps", o.ChaosSeed-1, o.ChaosSeed)
	}
}

// TestClusterKillRestartRoundTrip drives the guest lifecycle directly
// through the Cluster surface: kill a slot, verify the books, restart it,
// verify again, and make sure the analysis pipeline still works.
func TestClusterKillRestartRoundTrip(t *testing.T) {
	c := BuildCluster(ClusterConfig{
		Scale:        testScale,
		Specs:        []workload.Spec{workload.DayTrader()},
		NumVMs:       3,
		SteadyRounds: 5,
	})
	c.Run()
	if err := c.CheckLeaks(); err != nil {
		t.Fatalf("leaks before any kill: %v", err)
	}
	kernels, workers := len(c.Kernels), len(c.Workers)

	if k := c.KillGuest(1); k == nil {
		t.Fatal("KillGuest returned no kernel")
	}
	if c.GuestAlive(1) || len(c.Kernels) != kernels-1 {
		t.Fatal("kill did not detach the guest")
	}
	if len(c.Workers) >= workers {
		t.Fatal("kill left the dead guest's workers in the run list")
	}
	if err := c.CheckLeaks(); err != nil {
		t.Fatalf("leaks after kill: %v", err)
	}

	if k := c.RestartGuest(1); k == nil {
		t.Fatal("RestartGuest returned no kernel")
	}
	if !c.GuestAlive(1) || len(c.Kernels) != kernels || len(c.Workers) != workers {
		t.Fatal("restart did not restore the guest")
	}
	if err := c.CheckLeaks(); err != nil {
		t.Fatalf("leaks after restart: %v", err)
	}
	// The rebooted guest is live: run more rounds and analyze.
	c.RunSteady()
	if a := c.Analyze(); len(a.VMBreakdowns()) != 3 {
		t.Fatalf("analysis sees %d VMs after restart, want 3", len(a.VMBreakdowns()))
	}
	if err := c.CheckLeaks(); err != nil {
		t.Fatalf("leaks after post-restart rounds: %v", err)
	}
}

// TestClusterRestartIsDeterministic: restarting the same slot at the same
// generation yields the same VM seed, so chaos cells replay exactly.
func TestClusterRestartIsDeterministic(t *testing.T) {
	boot := func() mem.Seed {
		c := BuildCluster(ClusterConfig{
			Scale: testScale, Specs: []workload.Spec{workload.DayTrader()},
			NumVMs: 2, SteadyRounds: 2,
		})
		c.Run()
		c.KillGuest(0)
		c.RestartGuest(0)
		return c.GuestVM(0).Seed()
	}
	if a, b := boot(), boot(); a != b {
		t.Fatalf("restart seeds diverged: %d vs %d", a, b)
	}
}

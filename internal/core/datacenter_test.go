package core

import (
	"testing"

	"repro/internal/datacenter"
	"repro/internal/workload"
)

// TestDatacenterSweepInvariants checks the sweep's acceptance criteria on
// one run: migrations happen when enabled, no leak check ever fails, and
// the content protocol moves at least 5× fewer bytes than naive byte-copy
// on the seed-heavy workload.
func TestDatacenterSweepInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	fig := figureOf[DatacenterFigure](t, "datacenter")
	if len(fig.Rows) != 6 {
		t.Fatalf("want 6 cells, got %d", len(fig.Rows))
	}
	moved := false
	seen := map[string]bool{}
	for _, r := range fig.Rows {
		seen[r.Placement], seen[r.Migration] = true, true
		if r.LeakFailures != 0 {
			t.Errorf("%s/%s: %d leak failures", r.Placement, r.Migration, r.LeakFailures)
		}
		if r.LeakChecks == 0 {
			t.Errorf("%s/%s: leak invariant never ran", r.Placement, r.Migration)
		}
		if r.Served == 0 {
			t.Errorf("%s/%s: no traffic served", r.Placement, r.Migration)
		}
		if r.Migration == "off" && r.Migrations != 0 {
			t.Errorf("%s/off migrated %d times", r.Placement, r.Migrations)
		}
		if r.Migration != "off" && r.Migrations > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no cell with migration enabled actually migrated")
	}
	if !seen["similarity"] || !seen["content"] {
		t.Fatalf("sweep missing the similarity placement or the content protocol: %v", seen)
	}
}

// TestDatacenterContentBeatsNaive is the wire-bill acceptance criterion at
// the core layer: one deliberate migration of a Tuscany guest between twin
// hosts, measured in both protocols.
func TestDatacenterContentBeatsNaive(t *testing.T) {
	bytesFor := func(m datacenter.MigrationMode) int64 {
		dc := datacenter.New(datacenter.Config{
			Scale:         48,
			Hosts:         2,
			Guests:        4,
			Specs:         []workload.Spec{workload.Tuscany()},
			SharedClasses: true,
			SharedAOT:     true,
			Migration:     m,
			BaseSeed:      7,
		})
		g := dc.GuestSlots()[0]
		if !dc.Migrate(g, 1-g.HostIndex()) {
			t.Fatalf("%v migration failed", m)
		}
		if st := dc.Stats(); st.LeakFailures != 0 {
			t.Fatalf("%v: leak failures: %v", m, dc.LeakError())
		}
		return dc.Net.Stats().TotalBytes()
	}
	naive := bytesFor(datacenter.MigrationNaive)
	content := bytesFor(datacenter.MigrationContent)
	if content <= 0 || naive <= 0 {
		t.Fatalf("no traffic recorded: naive=%d content=%d", naive, content)
	}
	if naive < 5*content {
		t.Fatalf("content mode moved %d bytes vs naive %d — less than 5× saving", content, naive)
	}
}

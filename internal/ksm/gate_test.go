package ksm

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// gateEntries enumerates every page the volatility gate currently holds a
// last-seen checksum for, in table order. The one way tests read the gate.
func gateEntries(k *KSM) []pageKey {
	var out []pageKey
	for _, g := range k.gates {
		for i := range g.sums {
			vpn := g.start + mem.VPN(i)
			if _, seen := g.last(vpn); seen {
				out = append(out, pageKey{vm: g.vm, vpn: vpn})
			}
		}
	}
	return out
}

// gateSeen reads the gate for one page the way a scan would reach it.
func gateSeen(k *KSM, vm *hypervisor.VMProcess, vpn mem.VPN) bool {
	g := k.gateFor(vm, vpn)
	if g == nil {
		return false
	}
	_, seen := g.last(vpn)
	return seen
}

func entriesOf(k *KSM, vm *hypervisor.VMProcess) int {
	n := 0
	for _, key := range gateEntries(k) {
		if key.vm == vm {
			n++
		}
	}
	return n
}

// TestUnregisterDropsOnlyThatVMsGate: one VM's table goes away whole, the
// others' entries survive untouched, and a read for the departed VM — through
// a stale memo or not — reports unseen.
func TestUnregisterDropsOnlyThatVMsGate(t *testing.T) {
	f := newFixture(t, 512, 3, 16, DefaultConfig())
	for vi, vm := range f.vms {
		for i := uint64(0); i < 8; i++ {
			vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*100+i))
		}
	}
	// Stop inside VM 1 so the lookup memo points at the table about to go.
	f.k.ScanChunk(16 + 4)
	before0, before2 := entriesOf(f.k, f.vms[0]), entriesOf(f.k, f.vms[2])
	if before0 != 8 || entriesOf(f.k, f.vms[1]) != 4 || before2 != 0 {
		t.Fatalf("setup: gate entries per VM = %d/%d/%d, want 8/4/0",
			before0, entriesOf(f.k, f.vms[1]), before2)
	}
	gone := f.vms[1]
	f.k.Unregister(gone)
	if got := entriesOf(f.k, gone); got != 0 {
		t.Fatalf("unregistered VM keeps %d gate entries", got)
	}
	if got := entriesOf(f.k, f.vms[0]); got != before0 {
		t.Fatalf("VM 0 gate entries = %d after unregistering VM 1, want %d", got, before0)
	}
	for i := 0; i < 16; i++ {
		if gateSeen(f.k, gone, gone.MemslotBase()+mem.VPN(i)) {
			t.Fatalf("gate read for page %d of an unregistered VM reports seen", i)
		}
	}
	if !gateSeen(f.k, f.vms[0], f.vms[0].MemslotBase()) {
		t.Fatal("VM 0 page 0 lost its gate entry")
	}
	// The survivors keep their second sightings: finishing this pass and one
	// more merges nothing (content is private) but skips nothing twice.
	skips := f.k.Stats().ChecksumSkips
	f.scanPasses(2)
	if got := f.k.Stats().ChecksumSkips - skips; got != 8 {
		t.Fatalf("ChecksumSkips grew by %d after the unregister, want 8 (VM 2's first sightings only)", got)
	}
}

// TestUnmergeForgetsEveryGateEntry: Unmerge restarts the two-sighting rule
// for every page.
func TestUnmergeForgetsEveryGateEntry(t *testing.T) {
	f := newFixture(t, 256, 2, 8, DefaultConfig())
	for i := uint64(0); i < 4; i++ {
		f.vms[0].FillGuestPage(i, mem.Seed(10+i))
		f.vms[1].FillGuestPage(i, mem.Seed(20+i))
	}
	f.scanPasses(2)
	if len(gateEntries(f.k)) != 8 {
		t.Fatalf("setup: %d gate entries, want 8", len(gateEntries(f.k)))
	}
	f.k.Unmerge()
	if got := len(gateEntries(f.k)); got != 0 {
		t.Fatalf("%d gate entries survive Unmerge", got)
	}
}

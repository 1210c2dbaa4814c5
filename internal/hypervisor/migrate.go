package hypervisor

import (
	"fmt"

	"repro/internal/mem"
)

// Live-migration primitives. The hypervisor contributes exactly four
// mechanisms — pause/resume, a deterministic enumeration of the guest's
// mapped pages, read-only page export, and page install on the target —
// and the datacenter's migration engine composes them into iterative
// pre-copy. Export never perturbs the source (no faults, no access bits,
// no COW breaks), so pre-copy rounds are invisible to the guest exactly
// as hardware-assisted dirty logging makes them.

// Pause stops the guest's vCPUs for the stop-and-copy phase. Guest memory
// access while paused is a bug in the caller (the traffic generator must
// skip paused guests) and panics in ensureMapped.
func (vm *VMProcess) Pause() {
	if vm.dead {
		panic(fmt.Sprintf("hypervisor: Pause on killed %s", vm.cfg.Name))
	}
	vm.paused = true
}

// Resume restarts the guest's vCPUs (a migration aborted after pause).
func (vm *VMProcess) Resume() { vm.paused = false }

// Paused reports whether the guest's vCPUs are stopped.
func (vm *VMProcess) Paused() bool { return vm.paused }

// MappedGuestPages enumerates, in ascending order, every guest physical
// page that currently has state — resident, swapped, or inside a huge
// run — which is exactly the set a full pre-copy round must transfer.
// Untouched pages have no entry and cost the wire nothing: the
// destination regenerates them as demand-zero.
func (vm *VMProcess) MappedGuestPages() []uint64 {
	guestEnd := vm.memslotBase + mem.VPN(vm.guestPages)
	var out []uint64
	vm.hpt.Range(func(vpn mem.VPN, pte mem.PTE) bool {
		if vpn < vm.memslotBase || vpn >= guestEnd {
			return true
		}
		if !pte.Huge {
			out = append(out, uint64(vpn-vm.memslotBase))
			return true
		}
		// A huge head covers a whole aligned run; every covered page is
		// guest state. Carved subpages are excluded here — they have their
		// own entries in this same ascending walk (when still mapped).
		for off := mem.VPN(0); off < mem.HugePages && vpn+off < guestEnd; off++ {
			if vm.hpt.CarvedAt(vpn + off) {
				continue
			}
			out = append(out, uint64(vpn+off-vm.memslotBase))
		}
		return true
	})
	return out
}

// ExportGuestPage captures a guest physical page's content as a wire
// descriptor without touching guest state: resident pages (huge runs
// included) export straight from their frame, swapped pages from the swap
// slot's content handle. ok is false for pages with no state — the
// destination owes them nothing.
func (vm *VMProcess) ExportGuestPage(gpfn uint64) (mem.ExportedPage, bool) {
	pte, ok := vm.hpt.Lookup(vm.GPFNToHostVPN(gpfn))
	if !ok {
		return mem.ExportedPage{}, false
	}
	if pte.Swapped {
		return vm.host.phys.ExportContent(vm.host.swap.peek(pte.SwapSlot)), true
	}
	return vm.host.phys.ExportFrame(pte.Frame), true
}

// InstallGuestPage lands an exported page in this (destination) VM: the
// page is faulted in for write — breaking COW if an earlier pre-copy
// round's content was merged or shared in the meantime — and overwritten
// by descriptor. The returned class is the wire-cost signal: zero/seed
// pages and content the destination already holds cost a descriptor,
// only ImportCopy moves page bytes.
func (vm *VMProcess) InstallGuestPage(gpfn uint64, e mem.ExportedPage) mem.ImportClass {
	f := vm.ensureMapped(vm.GPFNToHostVPN(gpfn), true)
	return vm.host.phys.ImportPage(f, e)
}

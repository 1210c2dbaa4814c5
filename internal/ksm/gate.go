package ksm

import (
	"math/bits"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// regionGate is the volatility gate of one registered region: the checksum
// every page had when the scanner last visited it, indexed by vpn - start,
// and a bitset of the pages that have been visited at all. A dense table
// where a map keyed by (vm, vpn) used to be: the gate is read and written
// once per scanned page, in address order.
type regionGate struct {
	vm    *hypervisor.VMProcess
	start mem.VPN
	sums  []uint64
	seen  []uint64
}

func newRegionGate(reg hypervisor.MergeableRegion) *regionGate {
	n := int(reg.End - reg.Start)
	return &regionGate{vm: reg.VM, start: reg.Start, sums: make([]uint64, n), seen: make([]uint64, (n+63)/64)}
}

// last reports the checksum recorded at the page's previous visit, if any.
// Read-only, so classify workers may call it concurrently.
func (g *regionGate) last(vpn mem.VPN) (sum uint64, seen bool) {
	i := vpn - g.start
	return g.sums[i], g.seen[i>>6]&(1<<(i&63)) != 0
}

func (g *regionGate) record(vpn mem.VPN, sum uint64) {
	i := vpn - g.start
	g.sums[i] = sum
	g.seen[i>>6] |= 1 << (i & 63)
}

// sweep forgets pages that are no longer scan candidates — swapped out,
// unmapped, or merged into a stable page — so their next visit counts as a
// first sighting again.
func (g *regionGate) sweep(pm *mem.PhysMem) {
	for w, word := range g.seen {
		for ; word != 0; word &= word - 1 {
			bit := bits.TrailingZeros64(word)
			frame, resident := g.vm.ResolveResident(g.start + mem.VPN(w<<6+bit))
			if !resident || pm.IsKSM(frame) {
				g.seen[w] &^= 1 << bit
			}
		}
	}
}

func (g *regionGate) covers(vm *hypervisor.VMProcess, vpn mem.VPN) bool {
	return g.vm == vm && vpn-g.start < mem.VPN(len(g.sums)) // unsigned: below start wraps high
}

// gateFor finds the gate table covering a page, or nil when no registered
// region does. Collection walks regions in address order, so the last answer
// is almost always the next one; the memo makes this serial-only.
func (k *KSM) gateFor(vm *hypervisor.VMProcess, vpn mem.VPN) *regionGate {
	if g := k.gateMemo; g != nil && g.covers(vm, vpn) {
		return g
	}
	for _, g := range k.gates {
		if g.covers(vm, vpn) {
			k.gateMemo = g
			return g
		}
	}
	return nil
}

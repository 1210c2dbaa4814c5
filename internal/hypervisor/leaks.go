package hypervisor

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
)

// CheckLeaks verifies the host's memory bookkeeping after lifecycle events:
// every physical frame's reference count must equal the number of references
// the live state explains (page-table mappings, huge-block membership, the
// host kernel reserve, the demand ledger, and the caller-supplied external
// references — KSM's stable-tree holds), and the swap store's occupied slots
// must correspond one-to-one with swapped PTEs. A kill or restart that
// orphans a frame, leaks a refcount, or strands a swap slot shows up here.
//
// external lists frames holding references outside any page table (pass the
// scanner's StableFrames; each entry accounts one tree reference). The
// returned error is one line describing every class of mismatch, bounded per
// class; nil means the state is exactly accounted for.
func (h *Host) CheckLeaks(external []mem.FrameID) error {
	pm := h.phys
	expected := make([]int, pm.TotalFrames())
	for _, f := range h.kernelFrames {
		expected[f]++
	}
	for _, f := range h.claimed {
		expected[f]++
	}
	for _, f := range external {
		expected[f]++
	}
	slotRefs := make(map[uint32]int)
	for _, vm := range h.vms {
		vm.hpt.Range(func(vpn mem.VPN, pte mem.PTE) bool {
			switch {
			case pte.Swapped:
				slotRefs[pte.SwapSlot]++
			case pte.Huge:
				// Carved subpages are explained by their own base PTEs
				// (visited by this same walk); the head explains only the
				// uncarved remainder of the block.
				for i := 0; i < mem.HugePages; i++ {
					if vm.hpt.CarvedAt(vpn + mem.VPN(i)) {
						continue
					}
					expected[pte.Frame+mem.FrameID(i)]++
				}
			default:
				expected[pte.Frame]++
			}
			return true
		})
	}

	var problems []string
	report := func(class string, count *int, format string, args ...interface{}) {
		*count++
		if *count <= 4 {
			problems = append(problems, class+": "+fmt.Sprintf(format, args...))
		}
	}

	frameMismatches := 0
	for f := 0; f < pm.TotalFrames(); f++ {
		actual := pm.LiveRefCount(mem.FrameID(f))
		if actual != expected[f] {
			report("frame", &frameMismatches, "frame %d refcount %d, state explains %d", f, actual, expected[f])
		}
	}

	doubleMapped := 0
	dangling := 0
	for _, slot := range sortedSlotKeys(slotRefs) {
		if slotRefs[slot] > 1 {
			report("swap", &doubleMapped, "slot %d referenced by %d PTEs", slot, slotRefs[slot])
		}
		if _, ok := h.swap.slots[slot]; !ok {
			report("swap", &dangling, "slot %d referenced by a PTE but free in the store", slot)
		}
	}
	orphanSlots := 0
	for _, slot := range h.swap.liveSlots() {
		if slotRefs[slot] == 0 {
			report("swap", &orphanSlots, "slot %d occupied but referenced by no PTE", slot)
		}
	}

	if total := frameMismatches + doubleMapped + dangling + orphanSlots; total > 0 {
		return fmt.Errorf("hypervisor: %d leak(s): %d frame refcount mismatches, %d double-mapped / %d dangling / %d orphaned swap slots: %s",
			total, frameMismatches, doubleMapped, dangling, orphanSlots, strings.Join(problems, "; "))
	}
	return nil
}

// sortedSlotKeys orders the slot census for deterministic error messages.
func sortedSlotKeys(m map[uint32]int) []uint32 {
	out := make([]uint32, 0, len(m))
	for slot := range m {
		out = append(out, slot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

package hypervisor

import (
	"fmt"

	"repro/internal/mem"
)

// KillVM tears a guest VM process down end to end, as the host kernel does
// when a QEMU process dies: every mapping is unmapped, private and
// KSM-shared frames drop their reference (a stable page survives as long as
// other VMs map it; the scanner's end-of-pass prune collects the rest), huge
// blocks are dissolved and freed, swap slots are released, and the process
// leaves the host's VM list and eviction queue. The KSM and THP daemons keep
// their own region lists — callers must Unregister the VM there; CheckLeaks
// verifies nothing was orphaned.
func (h *Host) KillVM(vm *VMProcess) {
	if vm.dead {
		panic(fmt.Sprintf("hypervisor: KillVM on already-dead %s", vm.cfg.Name))
	}
	// The walk only reads the table (frames and swap slots are released, no
	// PTE is deleted): the whole table is dropped once it is done.
	vm.hpt.Range(func(vpn mem.VPN, pte mem.PTE) bool {
		switch {
		case pte.Swapped:
			h.swap.drop(h.phys, pte.SwapSlot)
		case pte.Huge:
			// Exit frees a huge page as a unit — no split event, no
			// re-queueing of base pages; the block just dissolves back into
			// free frames. Carved subpages own their (possibly remapped)
			// frames through their base PTEs, which this same loop visits,
			// so the huge branch releases only the uncarved remainder.
			h.phys.SplitHugeBlock(pte.Frame)
			for i := 0; i < mem.HugePages; i++ {
				if vm.hpt.CarvedAt(vpn + mem.VPN(i)) {
					continue
				}
				h.phys.DecRef(pte.Frame + mem.FrameID(i))
			}
		default:
			h.phys.DecRef(pte.Frame)
		}
		return true
	})
	vm.hpt = mem.NewPageTable()
	vm.stats.ResidentPages = 0
	vm.stats.SwappedPages = 0
	vm.dead = true
	for i, other := range h.vms {
		if other == vm {
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			break
		}
	}
	kept := h.evictQueue[:0]
	for _, m := range h.evictQueue {
		if m.vm != vm {
			kept = append(kept, m)
		}
	}
	h.evictQueue = kept
	h.stats.Kills++
}

// RestartVM boots a replacement process for a killed VM: same configuration
// (name, guest memory, overhead) but a fresh layout seed — a rebooted guest
// re-randomizes like any cold boot — and a fresh id and memslot base. The
// caller re-registers the new process with KSM/THP and reboots a guest OS in
// it.
func (h *Host) RestartVM(old *VMProcess, seed mem.Seed) *VMProcess {
	if old == nil || !old.dead {
		panic("hypervisor: RestartVM needs a VM killed by KillVM")
	}
	cfg := old.cfg
	cfg.Seed = seed
	h.stats.Restarts++
	return h.NewVM(cfg)
}

// ClaimFrames takes up to n frames from the pool into the host's demand
// ledger (a memory-demand spike: host-side allocation that guests cannot
// satisfy). Like any allocation it degrades through the eviction path —
// swapping cold private pages out and splitting cold huge mappings — but
// unlike allocFrame it stops at the wall instead of panicking, returning how
// many frames it actually claimed. The shortfall is the caller's OOM signal.
func (h *Host) ClaimFrames(n int) int {
	for got := 0; got < n; {
		id, err := h.phys.Alloc()
		if err != nil {
			if !h.evictOne() {
				return got
			}
			continue
		}
		h.claimed = append(h.claimed, id)
		got++
	}
	return n
}

// ReleaseClaimed returns every demand-ledger frame to the pool (the spike
// subsided) and reports how many were released.
func (h *Host) ReleaseClaimed() int {
	n := len(h.claimed)
	for _, id := range h.claimed {
		h.phys.DecRef(id)
	}
	h.claimed = h.claimed[:0]
	return n
}

// ClaimedFrames reports the current demand-ledger size in frames.
func (h *Host) ClaimedFrames() int { return len(h.claimed) }

// OOMPolicy selects which live VM dies when the host cannot satisfy a
// demand spike. It receives the host's VMs in creation order and returns the
// victim (nil means nothing killable).
type OOMPolicy func(vms []*VMProcess) *VMProcess

// VictimLargest is the default policy: kill the guest with the largest
// footprint (resident + swapped pages — the closest analogue of the Linux
// OOM killer's badness score in this model), breaking ties toward the
// oldest. Killing the largest guest frees the most memory per kill, which is
// what a consolidation host wants under pressure.
func VictimLargest(vms []*VMProcess) *VMProcess {
	var victim *VMProcess
	best := -1
	for _, vm := range vms {
		size := vm.stats.ResidentPages + vm.stats.SwappedPages
		if size > best {
			best = size
			victim = vm
		}
	}
	return victim
}

// VictimColdest kills the guest with the smallest dirty-log working-set
// estimate — the one whose pages are least likely to be needed again, so the
// kill destroys the least cached value per freed frame. Guests without an
// estimate (dirty logging off, or no drain observed yet) are treated as hot
// and skipped; ties break toward the oldest. When no guest has an estimate
// the policy degrades to VictimLargest, so it is safe as a default wherever
// dirty logging may be off.
func VictimColdest(vms []*VMProcess) *VMProcess {
	var victim *VMProcess
	best := 0
	for _, vm := range vms {
		ws, ok := vm.WorkingSetPages()
		if !ok {
			continue
		}
		if victim == nil || ws < best {
			best = ws
			victim = vm
		}
	}
	if victim == nil {
		return VictimLargest(vms)
	}
	return victim
}

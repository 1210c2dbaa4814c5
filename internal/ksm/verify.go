package ksm

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Verify checks the scanner's laws against the host at a quiescent point and
// reports the first one broken:
//   - every stable frame is allocated and flagged KSM, and every frame a
//     page maps that is flagged KSM is a stable frame;
//   - every mapper of a stable frame holds a COW PTE;
//   - a stable frame's refcount is 1 (the index's) + its mappers;
//   - no two stable frames are Equal;
//   - each stable frame is reached from its current checksum's slot, exactly
//     once, and the index counts its stable frames and its live unstable
//     entries right;
//   - Stats' PagesShared, PagesSharing and SavedBytes equal a recount from
//     the page tables.
//
// It walks every page table and the whole checksum table: a check for tests
// and for runs that ask for it, never for the scan path.
func (k *KSM) Verify() error {
	pm := k.host.Phys()
	stable := k.StableFrames()
	isStable := make(map[mem.FrameID]bool, len(stable))
	for _, f := range stable {
		if pm.IsFree(f) {
			return fmt.Errorf("ksm: stable frame %d has been freed", f)
		}
		isStable[f] = true
	}

	mappers := map[mem.FrameID]int{}
	for _, vm := range k.host.VMs() {
		var err error
		vm.HostPageTable().Range(func(vpn mem.VPN, pte mem.PTE) bool {
			if pte.Swapped || pte.Huge || !pm.IsKSM(pte.Frame) {
				return true
			}
			switch {
			case !isStable[pte.Frame]:
				err = fmt.Errorf("ksm: VM %s page %#x maps KSM frame %d, which is not a stable frame", vm.Name(), vpn, pte.Frame)
			case !pte.COW:
				err = fmt.Errorf("ksm: VM %s page %#x maps stable frame %d without COW", vm.Name(), vpn, pte.Frame)
			}
			mappers[pte.Frame]++
			return err == nil
		})
		if err != nil {
			return err
		}
	}

	shared, sharing := 0, 0
	for _, f := range stable {
		if !pm.IsKSM(f) {
			return fmt.Errorf("ksm: stable frame %d is not flagged KSM", f)
		}
		if got, want := pm.RefCount(f), 1+mappers[f]; got != want {
			return fmt.Errorf("ksm: stable frame %d has refcount %d, want %d (the index + %d mappers)", f, got, want, mappers[f])
		}
		if n := mappers[f]; n > 0 {
			shared++
			sharing += n
		}
	}
	// Equal content has equal sums: compare within each run of one sum.
	bySum := slices.Clone(stable)
	slices.SortFunc(bySum, func(a, b mem.FrameID) int { return cmp.Compare(pm.Checksum(a), pm.Checksum(b)) })
	for i, f := range bySum {
		for _, other := range bySum[i+1:] {
			if pm.Checksum(other) != pm.Checksum(f) {
				break
			}
			if pm.Equal(f, other) {
				return fmt.Errorf("ksm: stable frames %d and %d hold the same content", f, other)
			}
		}
	}
	if err := k.index.verify(pm, isStable); err != nil {
		return err
	}

	s := k.Stats()
	saved := int64(sharing-shared) * int64(k.host.PageSize())
	if s.PagesShared != shared || s.PagesSharing != sharing || s.SavedBytes != saved {
		return fmt.Errorf("ksm: Stats has shared %d sharing %d saved %d, the page tables %d, %d and %d",
			s.PagesShared, s.PagesSharing, s.SavedBytes, shared, sharing, saved)
	}
	return nil
}

// verify checks the table against the stable frames its node store lists:
// each is chained, once, in the slot its current checksum probes to; the
// counts match the chains.
func (t *sumTable) verify(pm *mem.PhysMem, isStable map[mem.FrameID]bool) error {
	chained := make(map[mem.FrameID]bool, len(isStable))
	unstable := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.gen == 0 {
			continue
		}
		for n := s.stable; n != nilNode; n = t.stable[n].next {
			f := t.stable[n].frame
			if chained[f] || !isStable[f] {
				return fmt.Errorf("ksm: stable frame %d is chained twice or not listed", f)
			}
			chained[f] = true
			if j, ok := t.find(pm.Checksum(f)); !ok || j != i {
				return fmt.Errorf("ksm: stable frame %d is chained in slot %d, not in its checksum's slot", f, i)
			}
		}
		for n := t.unstableHead(i); n != nilNode; n = t.node(n).next {
			unstable++
		}
	}
	if len(chained) != len(isStable) || t.stableN != len(isStable) {
		return fmt.Errorf("ksm: %d stable frames chained, %d listed, %d counted", len(chained), len(isStable), t.stableN)
	}
	if unstable != t.unstableN {
		return fmt.Errorf("ksm: %d unstable entries chained, %d counted", unstable, t.unstableN)
	}
	return nil
}

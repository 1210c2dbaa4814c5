package memanalysis

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// Verify checks the attribution against §2.A's laws and reports the first
// one broken, by name; nil means all four hold:
//   - partition: the VM breakdowns sum to the attributed total;
//   - owned+shared: each Java category's owned and shared bytes are not
//     negative and sum to its mapped bytes;
//   - java-owned: each VM's Java bytes equal its Java processes' owned bytes;
//   - allocated: every attributed frame is allocated, so the attributed
//     total never exceeds the frames in use (the paper's §2 claim).
//
// It reruns both breakdowns and must run before the host moves on.
func (a *Analysis) Verify() error {
	if err := checkBreakdowns(a.TotalGuestBytes(), a.VMBreakdowns(), a.JavaBreakdowns()); err != nil {
		return err
	}
	var err error
	a.eachFrame(func(f mem.FrameID, us []PageUser) {
		if err == nil && a.phys.LiveRefCount(f) == 0 {
			err = fmt.Errorf("memanalysis: allocated: frame %d is free but charged to VM %d", f, us[0].VM.ID())
		}
	})
	return err
}

// checkBreakdowns holds the three laws the breakdowns keep among themselves.
func checkBreakdowns(total int64, vms []VMBreakdown, javas []JavaBreakdown) error {
	var sum int64
	for _, b := range vms {
		sum += b.Total()
	}
	if sum != total {
		return fmt.Errorf("memanalysis: partition: VM breakdowns sum to %d bytes, %d attributed", sum, total)
	}
	javaOwned := map[int]int64{}
	for _, jb := range javas {
		cats := make([]string, 0, len(jb.ByCat))
		for cat := range jb.ByCat {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		for _, cat := range cats {
			cu := jb.ByCat[cat]
			if cu.OwnedBytes < 0 || cu.SharedBytes < 0 || cu.OwnedBytes+cu.SharedBytes != cu.MappedBytes {
				return fmt.Errorf("memanalysis: owned+shared: VM %d pid %d %q owns %d and shares %d of %d mapped bytes",
					jb.VMID, jb.PID, cat, cu.OwnedBytes, cu.SharedBytes, cu.MappedBytes)
			}
			javaOwned[jb.VMID] += cu.OwnedBytes
		}
	}
	for _, b := range vms {
		if b.JavaBytes != javaOwned[b.VMID] {
			return fmt.Errorf("memanalysis: java-owned: VM %d charges %d Java bytes, its Java processes own %d",
				b.VMID, b.JavaBytes, javaOwned[b.VMID])
		}
	}
	return nil
}

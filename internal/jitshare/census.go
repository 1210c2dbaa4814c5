package jitshare

import (
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// Area is one process's mapping of the shared code archive: the VMA start
// and the populated page count to examine.
type Area struct {
	Proc  *guestos.Process
	Start mem.VPN
	Pages int
}

// Counts classifies the code-archive pages of a set of processes by sharing
// outcome. Shareable counts resident archive pages (every one of them holds
// canonical or re-JIT-invalidated code and is a merge candidate by
// construction); Merged counts those currently backed by a KSM stable
// frame; Private is the remainder — pages not yet merged, COW-broken by a
// re-JIT, or holding content unique to this process.
type Counts struct {
	Shareable int
	Merged    int
	Private   int
}

// Census performs the read-only sharing walk over the given archive areas,
// resolving guest virtual → guest physical → host frame exactly as the
// memanalysis methodology does. It never faults pages in, so it is safe to
// call from metrics gauges without perturbing the run.
func Census(host *hypervisor.Host, areas []Area) Counts {
	var c Counts
	pm := host.Phys()
	for _, a := range areas {
		if a.Proc == nil || a.Pages <= 0 {
			continue
		}
		vm := a.Proc.Kernel().VM()
		pt := a.Proc.PageTable()
		for i := 0; i < a.Pages; i++ {
			pte, ok := pt.Lookup(a.Start + mem.VPN(i))
			if !ok || pte.Swapped {
				continue
			}
			f, ok := vm.ResolveResident(vm.GPFNToHostVPN(uint64(pte.Frame)))
			if !ok {
				continue
			}
			c.Shareable++
			if pm.IsKSM(f) {
				c.Merged++
			} else {
				c.Private++
			}
		}
	}
	return c
}

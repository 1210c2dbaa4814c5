// Package balloon implements the ballooning baseline (Waldspurger, OSDI
// '02) the paper's related-work section contrasts with TPS: a manager that
// responds to host memory pressure by asking guests to give memory back.
// The guest kernel satisfies the request the cheap way first — shrinking
// its page cache — exactly the behaviour the paper cites as ballooning's
// advantage ("it can reduce memory by shrinking its disk cache rather than
// by paging-out pages").
//
// The paper also notes KVM ships no balloon resource manager, so a separate
// manager must decide which guests give; this package is that manager. The
// caller decides when and how much (a demand spike asks for exactly what it
// is short of).
package balloon

import (
	"sort"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
)

// Manager spreads reclaim requests over the guests it manages.
type Manager struct {
	host    *hypervisor.Host
	kernels []*guestos.Kernel
}

// NewManager creates a manager over the given guests.
func NewManager(host *hypervisor.Host, kernels []*guestos.Kernel) *Manager {
	// Copy the guest list: the manager's membership changes independently of
	// the caller's slice (DropGuest/AddGuest), so sharing a backing array
	// would corrupt both.
	return &Manager{host: host, kernels: append([]*guestos.Kernel(nil), kernels...)}
}

// ReclaimPages asks the guests for up to n pages right now — the targeted
// inflation a memory-demand spike needs before the host falls back to
// swapping. Without working-set estimates the request is spread evenly;
// with the host's dirty log on, cold guests are squeezed first. It returns
// the pages actually recovered (guests may have nothing cheap left to give).
func (m *Manager) ReclaimPages(n int) int {
	if n <= 0 || len(m.kernels) == 0 {
		return 0
	}
	if m.host.DirtyLogEnabled() {
		return m.reclaimColdestFirst(n)
	}
	total := 0
	perGuest := n/len(m.kernels) + 1
	for _, k := range m.kernels {
		if total >= n {
			break
		}
		total += k.ReclaimPages(min(perGuest, n-total))
	}
	return total
}

// reclaimColdestFirst squeezes guests in ascending working-set order — the
// dirty-log drain estimate the KSM scanner maintains — so the page cache a
// hot guest is actively using is the last thing sacrificed. Guests without
// an estimate (no drain observed yet) are treated as hot; ties and unknowns
// keep manager order, so the pass is deterministic.
func (m *Manager) reclaimColdestFirst(n int) int {
	type ranked struct {
		k  *guestos.Kernel
		ws int
	}
	order := make([]ranked, 0, len(m.kernels))
	for _, k := range m.kernels {
		ws := int(^uint(0) >> 1) // unknown: hottest possible
		if est, valid := k.VM().WorkingSetPages(); valid {
			ws = est
		}
		order = append(order, ranked{k: k, ws: ws})
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].ws < order[b].ws })
	total := 0
	for _, r := range order {
		if total >= n {
			break
		}
		total += r.k.ReclaimPages(n - total)
	}
	return total
}

// DropGuest stops managing a dead guest. The pages it gave up died with the
// process; there is nothing to give back.
func (m *Manager) DropGuest(k *guestos.Kernel) {
	for i, kk := range m.kernels {
		if kk == k {
			m.kernels = append(m.kernels[:i], m.kernels[i+1:]...)
			return
		}
	}
}

// AddGuest starts managing a (re)booted guest.
func (m *Manager) AddGuest(k *guestos.Kernel) {
	m.kernels = append(m.kernels, k)
}

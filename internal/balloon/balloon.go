// Package balloon implements the ballooning baseline (Waldspurger, OSDI
// '02) the paper's related-work section contrasts with TPS: a manager that
// responds to host memory pressure by asking guests to give memory back.
// The guest kernel satisfies the request the cheap way first — shrinking
// its page cache — exactly the behaviour the paper cites as ballooning's
// advantage ("it can reduce memory by shrinking its disk cache rather than
// by paging-out pages").
//
// The paper also notes KVM ships no balloon resource manager, so a separate
// manager must decide target sizes; this package is that manager, with the
// simple proportional heuristic the paper alludes to.
package balloon

import (
	"sort"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
)

// Config tunes the manager.
type Config struct {
	// LowWatermarkBytes triggers inflation when host free memory drops
	// below it.
	LowWatermarkBytes int64
	// TargetFreeBytes is how much free memory inflation tries to recover.
	TargetFreeBytes int64
}

// Manager balances guest balloons against host pressure.
type Manager struct {
	host    *hypervisor.Host
	cfg     Config
	kernels []*guestos.Kernel

	// ballooned is how many pages each guest's balloon currently holds
	// (index-parallel to kernels); the sum is the manager's ledger of memory
	// taken from guests and not yet given back.
	ballooned []int

	stats Stats
}

// Stats counts balloon activity.
type Stats struct {
	Inflations     uint64
	Deflations     uint64
	PagesReclaimed int
	PagesRestored  int
}

// NewManager creates a manager over the given guests.
func NewManager(host *hypervisor.Host, kernels []*guestos.Kernel, cfg Config) *Manager {
	if cfg.LowWatermarkBytes <= 0 {
		cfg.LowWatermarkBytes = int64(host.PageSize()) * 256
	}
	if cfg.TargetFreeBytes < cfg.LowWatermarkBytes {
		cfg.TargetFreeBytes = cfg.LowWatermarkBytes * 2
	}
	// Copy the guest list: the manager's membership changes independently of
	// the caller's slice (DropGuest/AddGuest), so sharing a backing array
	// would corrupt both.
	ks := append([]*guestos.Kernel(nil), kernels...)
	return &Manager{host: host, cfg: cfg, kernels: ks, ballooned: make([]int, len(ks))}
}

// Stats returns manager counters.
func (m *Manager) Stats() Stats { return m.stats }

// BalloonedPages reports how many pages the balloons currently hold across
// all guests (inflations minus deflations).
func (m *Manager) BalloonedPages() int {
	total := 0
	for _, n := range m.ballooned {
		total += n
	}
	return total
}

// Balance checks host pressure and, if free memory is below the low
// watermark, inflates guest balloons until the target is met or the guests
// have nothing cheap left to give. Without working-set estimates every guest
// gives proportionally; with the host's dirty log on, cold guests give
// first. It returns the number of pages recovered.
func (m *Manager) Balance() int {
	free := m.host.FreeBytes()
	if free >= m.cfg.LowWatermarkBytes || len(m.kernels) == 0 {
		return 0
	}
	m.stats.Inflations++
	needPages := int((m.cfg.TargetFreeBytes - free) / int64(m.host.PageSize()))
	total := 0
	if m.host.DirtyLogEnabled() {
		total = m.reclaimColdestFirst(needPages)
	} else {
		perGuest := needPages/len(m.kernels) + 1
		for i, k := range m.kernels {
			got := k.ReclaimPages(perGuest)
			m.ballooned[i] += got
			total += got
		}
	}
	m.stats.PagesReclaimed += total
	return total
}

// ReclaimPages asks the guests for up to n pages right now, regardless of
// watermarks — the targeted inflation a memory-demand spike needs before the
// host falls back to swapping. Without working-set estimates the request is
// spread evenly; with the host's dirty log on, cold guests are squeezed
// first. It returns the pages actually recovered (guests may have nothing
// cheap left to give).
func (m *Manager) ReclaimPages(n int) int {
	if n <= 0 || len(m.kernels) == 0 {
		return 0
	}
	m.stats.Inflations++
	total := 0
	if m.host.DirtyLogEnabled() {
		total = m.reclaimColdestFirst(n)
	} else {
		perGuest := n/len(m.kernels) + 1
		for i, k := range m.kernels {
			if total >= n {
				break
			}
			want := perGuest
			if want > n-total {
				want = n - total
			}
			got := k.ReclaimPages(want)
			m.ballooned[i] += got
			total += got
		}
	}
	m.stats.PagesReclaimed += total
	return total
}

// reclaimColdestFirst squeezes guests in ascending working-set order — the
// dirty-log drain estimate the KSM scanner maintains — so the page cache a
// hot guest is actively using is the last thing sacrificed. Guests without
// an estimate (no drain observed yet) are treated as hot; ties and unknowns
// keep manager order, so the pass is deterministic.
func (m *Manager) reclaimColdestFirst(n int) int {
	type ranked struct {
		idx int
		ws  int
	}
	order := make([]ranked, 0, len(m.kernels))
	for i, k := range m.kernels {
		ws := int(^uint(0) >> 1) // unknown: hottest possible
		if est, valid := k.VM().WorkingSetPages(); valid {
			ws = est
		}
		order = append(order, ranked{idx: i, ws: ws})
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].ws < order[b].ws })
	total := 0
	for _, r := range order {
		if total >= n {
			break
		}
		got := m.kernels[r.idx].ReclaimPages(n - total)
		m.ballooned[r.idx] += got
		total += got
	}
	return total
}

// DropGuest removes a dead guest from the manager. Its balloon ledger is
// simply forgotten — the reclaimed pages died with the process, there is
// nothing to give back — and the forgotten page count is returned.
func (m *Manager) DropGuest(k *guestos.Kernel) int {
	for i, kk := range m.kernels {
		if kk == k {
			n := m.ballooned[i]
			m.kernels = append(m.kernels[:i], m.kernels[i+1:]...)
			m.ballooned = append(m.ballooned[:i], m.ballooned[i+1:]...)
			return n
		}
	}
	return 0
}

// AddGuest starts managing a (re)booted guest with an empty balloon.
func (m *Manager) AddGuest(k *guestos.Kernel) {
	m.kernels = append(m.kernels, k)
	m.ballooned = append(m.ballooned, 0)
}

// Deflate releases the balloons once host pressure has eased (free memory at
// or above the inflation target): the ledger returns to the guests, which
// regrow their page cache on demand — dropped cache contents re-fault from
// backing files, so only the accounting needs restoring. It returns the
// number of pages given back; zero while the host is still under pressure.
func (m *Manager) Deflate() int {
	if m.host.FreeBytes() < m.cfg.TargetFreeBytes {
		return 0
	}
	total := 0
	for i, n := range m.ballooned {
		if n > 0 {
			total += n
			m.ballooned[i] = 0
		}
	}
	if total == 0 {
		return 0
	}
	m.stats.Deflations++
	m.stats.PagesRestored += total
	return total
}

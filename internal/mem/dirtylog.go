package mem

// DirtyRing is a bounded dirty-page log in the style of Intel's Page
// Modification Logging: the hypervisor appends the page number of every
// write fault, COW break and demand fault, and a consumer (the KSM scanner)
// drains the log to revisit only pages whose content may have changed since
// the last drain.
//
// Like the hardware dirty bit that gates PML appends, each page is recorded
// at most once per drain cycle: the first write logs it, further writes to
// the same page are free. When the ring fills, the log-full condition is
// latched instead of wrapping — the consumer must treat the VM
// conservatively (rescan everything), exactly what KVM does when the PML
// buffer overflows between exits.
type DirtyRing struct {
	cap   int
	pages []VPN
	// member is the per-cycle dirty bit, one per page number (the ring logs
	// guest frame numbers, dense from zero): pages already logged this cycle
	// are not appended again. It grows to the highest page logged.
	member []uint64
	// full latches the log-full condition until the next Drain/Reset.
	full bool

	appends   uint64
	overflows uint64
}

// DefaultDirtyRingPages bounds a ring when the caller passes zero. Real PML
// buffers hold 512 entries; with the per-cycle dedup above, entries are
// distinct pages, so a few thousand covers a busy guest between drains.
const DefaultDirtyRingPages = 4096

// NewDirtyRing returns an empty ring holding at most capPages distinct
// pages per drain cycle (0 = DefaultDirtyRingPages).
func NewDirtyRing(capPages int) *DirtyRing {
	if capPages <= 0 {
		capPages = DefaultDirtyRingPages
	}
	return &DirtyRing{cap: capPages}
}

// Cap reports the ring capacity in distinct pages per cycle.
func (r *DirtyRing) Cap() int { return r.cap }

// Log records a dirtied page. Pages already logged this cycle are ignored;
// once the ring is full, new pages only latch the overflow flag.
func (r *DirtyRing) Log(page VPN) {
	w, bit := int(page/64), uint64(1)<<(page%64)
	if w < len(r.member) && r.member[w]&bit != 0 {
		return
	}
	if len(r.pages) >= r.cap {
		if !r.full {
			r.full = true
			r.overflows++
		}
		return
	}
	for w >= len(r.member) {
		r.member = append(r.member, 0)
	}
	r.member[w] |= bit
	r.pages = append(r.pages, page)
	r.appends++
}

// Depth reports how many distinct pages the current cycle holds.
func (r *DirtyRing) Depth() int { return len(r.pages) }

// Overflowed reports whether the current cycle hit the capacity wall.
func (r *DirtyRing) Overflowed() bool { return r.full }

// Drain returns the pages dirtied since the last drain, in append order,
// plus the log-full flag, and starts a fresh cycle. An overflowed drain's
// page list is incomplete by construction — the consumer must fall back to
// a full rescan.
func (r *DirtyRing) Drain() ([]VPN, bool) {
	pages, full := r.pages, r.full
	for _, p := range pages {
		r.member[p/64] &^= 1 << (p % 64)
	}
	r.pages, r.full = nil, false
	return pages, full
}

// Reset discards the current cycle without materializing it, reporting how
// many pages were dropped and whether the cycle had overflowed. A linear
// full scan uses this when it passes a VM: everything logged so far is
// about to be visited anyway.
func (r *DirtyRing) Reset() (n int, overflowed bool) {
	pages, overflowed := r.Drain()
	r.pages = pages[:0] // nobody else holds the list: keep its buffer
	return len(pages), overflowed
}

// Appends reports the lifetime count of pages logged (post-dedup).
func (r *DirtyRing) Appends() uint64 { return r.appends }

// Overflows reports how many cycles hit the capacity wall.
func (r *DirtyRing) Overflows() uint64 { return r.overflows }

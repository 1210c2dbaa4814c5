package hypervisor

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/simclock"
)

// fifoModel is the eviction queue as a plain slice popped with q[1:], run
// with evictOne's second-chance rules over a shadow of each page's state.
// The test keeps every page private and base-sized and swap unbounded, so
// the stale check and the accessed bit are the only rules that apply.
type fifoModel struct {
	q        []mapping
	pages    map[mapping]*shadowPage
	resident int
}

type shadowPage struct{ resident, swapped, accessed bool }

// access is a guest touch: a page that is not resident takes a frame, which
// evicts first when the host has none free, and joins the queue's tail.
func (m *fifoModel) access(at mapping, ramPages int) {
	p := m.pages[at]
	if p == nil {
		p = &shadowPage{}
		m.pages[at] = p
	}
	if !p.resident {
		if m.resident == ramPages && !m.evict() {
			panic("fifoModel: nothing evictable")
		}
		m.resident++
		p.resident, p.swapped = true, false
		m.q = append(m.q, at)
	}
	p.accessed = true
}

func (m *fifoModel) evict() bool {
	for spins := 2*len(m.q) + 1; spins > 0 && len(m.q) > 0; spins-- {
		at := m.q[0]
		m.q = m.q[1:]
		p := m.pages[at]
		if p == nil || !p.resident {
			continue // stale entry
		}
		if p.accessed {
			p.accessed = false
			m.q = append(m.q, at)
			continue
		}
		p.resident, p.swapped = false, true
		m.resident--
		return true
	}
	return false
}

func (m *fifoModel) release(at mapping) {
	if p := m.pages[at]; p != nil {
		if p.resident {
			m.resident--
		}
		delete(m.pages, at)
	}
}

func (m *fifoModel) kill(vm *VMProcess) {
	kept := m.q[:0]
	for _, at := range m.q {
		if at.vm != vm {
			kept = append(kept, at)
		}
	}
	m.q = kept
	for at, p := range m.pages {
		if at.vm == vm {
			if p.resident {
				m.resident--
			}
			delete(m.pages, at)
		}
	}
}

// TestEvictQueueMatchesFIFOModel drives random touches, fills, releases,
// direct evictions and kill/restart cycles over three VMs on a host with
// fewer frames than their pages, and checks after every step that the host's
// live eviction queue, and every page's residency, swap and accessed state,
// match the plain-slice model: the same victims in the same order. The
// queue's array stays within twice its live entries plus one.
func TestEvictQueueMatchesFIFOModel(t *testing.T) {
	const ramPages, guestPages, steps = 24, 32, 6000
	h := NewHost(Config{Name: "t", RAMBytes: ramPages * pg}, simclock.New())
	vms := make([]*VMProcess, 3)
	for i := range vms {
		vms[i] = h.NewVM(VMConfig{Name: "vm", GuestMemBytes: guestPages * pg, Seed: mem.Seed(i + 1)})
	}
	model := &fifoModel{pages: make(map[mapping]*shadowPage)}
	rng := rand.New(rand.NewSource(1))
	compactions, lastHead := 0, 0
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(vms))
		vm := vms[i]
		gpfn := uint64(rng.Intn(guestPages))
		at := mapping{vm: vm, vpn: vm.GPFNToHostVPN(gpfn)}
		switch op := rng.Intn(100); {
		case op < 45:
			model.access(at, ramPages)
			vm.TouchGuestPage(gpfn, false)
		case op < 80:
			model.access(at, ramPages)
			vm.FillGuestPage(gpfn, mem.Seed(step))
		case op < 92:
			model.release(at)
			vm.ReleaseGuestPage(gpfn)
		case op < 98:
			if got, want := h.evictOne(), model.evict(); got != want {
				t.Fatalf("step %d: evictOne = %v, model %v", step, got, want)
			}
		default:
			model.kill(vm)
			h.KillVM(vm)
			vms[i] = h.RestartVM(vm, mem.Seed(step))
		}
		if h.evictHead < lastHead {
			compactions++
		}
		lastHead = h.evictHead
		if live := h.evictQueue[h.evictHead:]; !slices.Equal(live, model.q) {
			t.Fatalf("step %d: live queue has %d entries, model %d, or they differ", step, len(live), len(model.q))
		}
		if n := len(h.evictQueue); n > 2*h.queued()+1 {
			t.Fatalf("step %d: queue array holds %d entries for %d live", step, n, h.queued())
		}
		for _, vm := range vms {
			for g := uint64(0); g < guestPages; g++ {
				vpn := vm.GPFNToHostVPN(g)
				var got shadowPage
				if pte, ok := vm.hpt.Lookup(vpn); ok {
					got = shadowPage{resident: !pte.Swapped, swapped: pte.Swapped, accessed: pte.Accessed}
				}
				var want shadowPage
				if p := model.pages[mapping{vm: vm, vpn: vpn}]; p != nil {
					want = *p
				}
				if got != want {
					t.Fatalf("step %d: %s gpfn %d is %+v, model %+v", step, vm.Name(), g, got, want)
				}
			}
		}
	}
	if s := h.Stats(); s.SwapOuts < steps/10 || s.Kills == 0 || compactions == 0 {
		t.Fatalf("too little churn: %d swap-outs, %d kills, %d compactions", s.SwapOuts, s.Kills, compactions)
	}
}

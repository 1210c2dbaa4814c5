package mem

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// ptModel is the naive reference a PageTable is checked against: every page
// a Lookup can answer, expanded — each covered subpage of a huge run holds
// its synthesized entry — plus the per-run state of the huge heads. Its
// methods report whether the operation is legal; an illegal one leaves the
// model alone and must panic in the real table.
type ptModel struct {
	pages map[VPN]PTE
	runs  map[VPN]*ptModelRun // by huge head
}

type ptModelRun struct {
	carved     map[VPN]bool
	heat       map[VPN]uint16
	age, quiet int
}

func newPTModel() *ptModel {
	return &ptModel{pages: map[VPN]PTE{}, runs: map[VPN]*ptModelRun{}}
}

// covered: vpn is answered by a huge head (the head itself included).
func (m *ptModel) covered(vpn VPN) bool {
	r := m.runs[HugeAlign(vpn)]
	return r != nil && !r.carved[vpn]
}

// fan writes the head entry e over every uncarved page of its run.
func (m *ptModel) fan(head VPN, e PTE) {
	for off := VPN(0); off < HugePages; off++ {
		if !m.runs[head].carved[head+off] {
			sub := e
			sub.Frame += FrameID(off)
			m.pages[head+off] = sub
		}
	}
}

func (m *ptModel) set(vpn VPN, e PTE) bool {
	if vpn >= maxVPN || e.Huge != (m.runs[vpn] != nil) || !e.Huge && m.covered(vpn) {
		return false
	}
	if e.Huge {
		m.fan(vpn, e)
	} else {
		m.pages[vpn] = e
	}
	return true
}

func (m *ptModel) del(vpn VPN) bool {
	if m.covered(vpn) {
		return false
	}
	delete(m.pages, vpn)
	return true
}

func (m *ptModel) installHuge(head VPN, e PTE) bool {
	if head%HugePages != 0 || m.runs[head] != nil {
		return false
	}
	m.runs[head] = &ptModelRun{carved: map[VPN]bool{}, heat: map[VPN]uint16{}}
	e.Huge = true
	m.fan(head, e)
	return true
}

func (m *ptModel) splitHuge(head VPN) bool {
	if m.runs[head] == nil {
		return false
	}
	e := m.pages[head]
	e.Huge = false
	m.fan(head, e)
	delete(m.runs, head)
	return true
}

func (m *ptModel) carve(head VPN, vpns []VPN) bool {
	r, seen := m.runs[head], map[VPN]bool{}
	for _, v := range vpns {
		if r == nil || v <= head || v >= head+HugePages || r.carved[v] || seen[v] {
			return false
		}
		seen[v] = true
	}
	if r == nil {
		return false
	}
	for _, v := range vpns {
		e := m.pages[v]
		e.Huge = false
		m.pages[v], r.carved[v] = e, true
	}
	r.quiet = 0
	return true
}

func (m *ptModel) uncarve(head, vpn VPN) bool {
	r := m.runs[head]
	if r == nil || !r.carved[vpn] {
		return false
	}
	delete(r.carved, vpn)
	e := m.pages[head]
	e.Frame += FrameID(vpn - head)
	m.pages[vpn] = e
	return true
}

func (m *ptModel) noteDirty(vpn VPN) {
	if r := m.runs[HugeAlign(vpn)]; r != nil && r.heat[vpn] < 1<<16-1 {
		r.heat[vpn]++
	}
}

func (m *ptModel) decay(head VPN) (age, quiet int, legal bool) {
	r := m.runs[head]
	if r == nil {
		return 0, 0, false
	}
	total := 0
	for v, h := range r.heat {
		total += int(h)
		r.heat[v] = h / 2
	}
	r.age = min(r.age+1, 255)
	r.quiet = min(r.quiet+1, 255)
	if total != 0 {
		r.quiet = 0
	}
	return r.age, r.quiet, true
}

// stored lists the keys the real table must hold, ascending: every page but
// the synthesized (covered, non-head) ones.
func (m *ptModel) stored() []VPN {
	var out []VPN
	for v := range m.pages {
		if v%HugePages == 0 || !m.covered(v) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func (r *ptModelRun) carvedVPNs() []VPN {
	var out []VPN
	for v := range r.carved {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// ptModelBase places the exercised runs across the boundary of a second-
// level node, so neighbouring leaves hang off different parents.
const (
	ptModelBase VPN = 1<<(3*ptFanBits) - 2*HugePages
	ptModelRuns     = 4
)

// ptDriver applies one byte-coded operation at a time to a PageTable and
// the model, and compares everything observable after each.
type ptDriver struct {
	t   *testing.T
	pt  *PageTable
	m   *ptModel
	ops []byte
}

func (d *ptDriver) next() byte {
	if len(d.ops) == 0 {
		return 0
	}
	b := d.ops[0]
	d.ops = d.ops[1:]
	return b
}

func (d *ptDriver) head() VPN { return ptModelBase + VPN(d.next()%ptModelRuns)*HugePages }

// vpnIn picks a page of the run at head; every other pick prefers a carved
// subpage when the run has one, so swap-out, delete and uncarve reach them.
func (d *ptDriver) vpnIn(head VPN) VPN {
	b := d.next()
	if r := d.m.runs[head]; r != nil && len(r.carved) > 0 && b&1 == 1 {
		carved := r.carvedVPNs()
		return carved[int(b>>1)%len(carved)]
	}
	return head + VPN(b)*2 + VPN(d.next()&1)
}

func (d *ptDriver) vpn() VPN { return d.vpnIn(d.head()) }

func (d *ptDriver) pte() PTE {
	f, e := d.next(), PTE{Frame: FrameID(d.next())<<10 | FrameID(d.next()), LastUse: int64(d.next())}
	e.Writable, e.COW, e.Accessed = f&1 != 0, f&2 != 0, f&4 != 0
	if f&24 == 24 { // one in four entries is swapped out
		e = PTE{Frame: NilFrame, Swapped: true, SwapSlot: uint32(d.next()), Writable: e.Writable}
	}
	return e
}

// do runs fn on the real table: it must panic exactly when the model called
// the operation illegal.
func (d *ptDriver) do(what string, legal bool, fn func()) {
	d.t.Helper()
	if legal {
		fn()
	} else {
		mustPanic(d.t, what, fn)
	}
}

func (d *ptDriver) step() {
	pt, m := d.pt, d.m
	switch d.next() % 16 {
	case 0, 1, 2: // Set of a base entry (present or swapped)
		v, e := d.vpn(), d.pte()
		d.do("Set inside a huge run", m.set(v, e), func() { pt.Set(v, e) })
	case 3, 4:
		v := d.vpn()
		want, wantOK := m.pages[v]
		d.do("Delete inside a huge run", m.del(v), func() {
			if e, ok := pt.Delete(v); ok != wantOK || e != want {
				d.t.Fatalf("Delete(%d) = %+v %v, model %+v %v", v, e, ok, want, wantOK)
			}
		})
	case 5, 6:
		h, e := d.head(), d.pte()
		e.Swapped, e.SwapSlot = false, 0
		if d.next()%8 == 0 {
			h++ // unaligned
		}
		d.do("InstallHuge unaligned or over a huge run", m.installHuge(h, e), func() { pt.InstallHuge(h, e) })
	case 7:
		h := d.head()
		if d.next()%8 == 0 {
			h += 3
		}
		d.do("SplitHuge of no huge entry", m.splitHuge(h), func() { pt.SplitHuge(h) })
	case 8, 9:
		// One or two pages of the run: the head, a carved page, a repeat or
		// (one time in eight) a page past the run make the list illegal. An
		// illegal list is cut to its first page, so that a panic leaves
		// nothing half-carved.
		h := d.head()
		vpns := []VPN{d.vpnIn(h), d.vpnIn(h)}[:1+d.next()%2]
		if d.next()%8 == 0 {
			vpns[0] += HugePages
		}
		legal := m.carve(h, vpns)
		if !legal {
			vpns = vpns[:1]
			legal = m.carve(h, vpns)
		}
		d.do("SplitHugeSubpages guard", legal, func() { pt.SplitHugeSubpages(h, vpns) })
	case 10:
		h := d.head()
		v := d.vpnIn(h)
		d.do("UncarveSubpage of an uncarved page", m.uncarve(h, v), func() { pt.UncarveSubpage(h, v) })
	case 11: // rewrite a huge head in place, the touch path of a THP page
		h, e := d.head(), d.pte()
		e.Swapped, e.SwapSlot, e.Huge = false, 0, true
		d.do("huge Set on no huge head", m.set(h, e), func() { pt.Set(h, e) })
	case 12, 13:
		for n := d.next() % 4; n < 4; n++ {
			v := d.vpn()
			m.noteDirty(v)
			pt.NoteSubpageDirty(v)
		}
	case 14:
		h := d.head()
		age, quiet, legal := m.decay(h)
		d.do("DecaySubpageHeat of no huge entry", legal, func() {
			if a, q := pt.DecaySubpageHeat(h); a != age || q != quiet {
				d.t.Fatalf("DecaySubpageHeat(%d) = %d,%d, model %d,%d", h, a, q, age, quiet)
			}
		})
	case 15: // beyond the page-number space
		for _, v := range []VPN{maxVPN, maxVPN + 5, ^VPN(0)} {
			if _, ok := pt.Lookup(v); ok || pt.CarvedAt(v) || pt.SubpageHeat(v) != 0 {
				d.t.Fatalf("vpn %#x beyond maxVPN answered", uint64(v))
			}
			if _, ok := pt.Delete(v); ok {
				d.t.Fatalf("Delete(%#x) beyond maxVPN succeeded", uint64(v))
			}
			d.do("Set beyond maxVPN", m.set(v, PTE{Frame: 1}), func() { pt.Set(v, PTE{Frame: 1}) })
		}
	}
	d.check()
}

// check compares every observable of the table with the model, over the
// exercised runs and a few pages either side.
func (d *ptDriver) check() {
	t, pt, m := d.t, d.pt, d.m
	t.Helper()
	resident := 0
	for v := ptModelBase - 3; v < ptModelBase+ptModelRuns*HugePages+3; v++ {
		want, ok := m.pages[v]
		if got, gotOK := pt.Lookup(v); gotOK != ok || got != want {
			t.Fatalf("Lookup(%d) = %+v %v, model %+v %v", v, got, gotOK, want, ok)
		}
		if ok && !want.Swapped {
			resident++
		}
		r := m.runs[HugeAlign(v)]
		if got, want := pt.CarvedAt(v), r != nil && r.carved[v]; got != want {
			t.Fatalf("CarvedAt(%d) = %v, model %v", v, got, want)
		}
		wantHeat := uint16(0)
		if r != nil {
			wantHeat = r.heat[v]
		}
		if got := pt.SubpageHeat(v); got != wantHeat {
			t.Fatalf("SubpageHeat(%d) = %d, model %d", v, got, wantHeat)
		}
	}
	for i := VPN(0); i < ptModelRuns; i++ {
		head := ptModelBase + i*HugePages
		var carved []VPN
		var heats [HugePages]uint16
		if r := m.runs[head]; r != nil {
			carved = r.carvedVPNs()
			for v, h := range r.heat {
				heats[v-head] = h
			}
		}
		if got := pt.CarvedSubpages(head); !slices.Equal(got, carved) || pt.CarvedCount(head) != len(carved) {
			t.Fatalf("run %d: CarvedSubpages %v, CarvedCount %d, model %v", head, got, pt.CarvedCount(head), carved)
		}
		if pt.SubpageHeats(head) != heats {
			t.Fatalf("run %d: SubpageHeats differ from the model", head)
		}
	}
	stored := m.stored()
	if pt.Len() != len(stored) || pt.PresentCount() != resident || pt.HugeMappings() != len(m.runs) {
		t.Fatalf("Len %d PresentCount %d HugeMappings %d, model %d %d %d",
			pt.Len(), pt.PresentCount(), pt.HugeMappings(), len(stored), resident, len(m.runs))
	}
	if got := pt.SortedVPNs(); !slices.Equal(got, stored) {
		t.Fatalf("SortedVPNs = %v, model %v", got, stored)
	}
	// Range visits the same keys in the same order, and survives a Set on
	// the entry being visited (powervm's share pass does exactly that).
	k := 0
	pt.Range(func(v VPN, e PTE) bool {
		if k >= len(stored) || v != stored[k] || e != m.pages[v] {
			t.Fatalf("Range visit %d = %d %+v, model %v", k, v, e, stored)
		}
		k++
		e.Accessed = !e.Accessed
		pt.Set(v, e)
		m.set(v, e)
		return true
	})
	if k != len(stored) {
		t.Fatalf("Range visited %d entries, want %d", k, len(stored))
	}
}

// TestPageTableModel drives long random operation sequences over four
// adjacent runs and compares the table with the model after every step.
func TestPageTableModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 12000)
		rand.New(rand.NewSource(seed)).Read(ops)
		d := &ptDriver{t: t, pt: NewPageTable(), m: newPTModel(), ops: ops}
		for len(d.ops) > 0 {
			d.step()
		}
	}
}

// FuzzPageTableModel feeds arbitrary op strings through the same driver.
func FuzzPageTableModel(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 3, 4, 1, 8, 0, 7, 2, 12, 0, 0, 15, 14, 0, 10, 0, 7, 1, 7, 0, 1})
	f.Add([]byte{0, 1, 9, 0, 7, 8, 9, 3, 5, 1, 0, 0, 0, 0, 1, 3, 1, 9, 0, 11, 1, 4, 4, 4, 4, 15})
	f.Add([]byte{6, 2, 0, 0, 0, 0, 1, 9, 2, 100, 1, 9, 2, 100, 4, 0, 2, 201, 0, 2, 201, 31, 0, 0, 0, 9, 10, 2, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		d := &ptDriver{t: t, pt: NewPageTable(), m: newPTModel(), ops: ops}
		for len(d.ops) > 0 {
			d.step()
		}
	})
}

// TestPageTableConcurrentLookups is the contract the sharded KSM classify
// phase relies on: any number of goroutines may read one table. The readers
// interleave over base, huge-covered and carved entries of several leaves, so
// under -race anything the read path writes (a last-leaf memo, say) is
// reported within the first few lookups.
func TestPageTableConcurrentLookups(t *testing.T) {
	const runs = 6
	type answer struct {
		e          PTE
		ok, carved bool
	}
	pt, want := NewPageTable(), map[VPN]answer{}
	for r := VPN(0); r < runs; r++ {
		head := ptModelBase + r*HugePages
		if r%2 == 0 { // base entries, denser in the earlier runs
			for off := VPN(0); off < HugePages; off += 1 + r {
				e := PTE{Frame: FrameID(head + off), COW: off%3 == 0}
				pt.Set(head+off, e)
				want[head+off] = answer{e: e, ok: true}
			}
			continue
		}
		// A huge run with three subpages carved out: one swapped out since,
		// one untouched, one unmapped.
		e := PTE{Frame: FrameID(r) << 12, Writable: true, LastUse: int64(r), Huge: true}
		pt.InstallHuge(head, e)
		for off := VPN(0); off < HugePages; off++ {
			sub := e
			sub.Frame += FrameID(off)
			want[head+off] = answer{e: sub, ok: true}
		}
		swapped, kept, gone := head+1, head+64+r, head+HugePages-1
		pt.SplitHugeSubpages(head, []VPN{swapped, kept, gone})
		out := PTE{Frame: NilFrame, Swapped: true, SwapSlot: uint32(r)}
		pt.Set(swapped, out)
		pt.Delete(gone)
		base := want[kept].e
		base.Huge = false
		want[swapped], want[kept], want[gone] = answer{out, true, true}, answer{base, true, true}, answer{carved: true}
	}
	var wg sync.WaitGroup
	for g := VPN(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A stride of HugePages+1 from a per-goroutine start: consecutive
			// lookups land in different leaves, and every offset comes up.
			const span = runs*HugePages + 2
			for k, v := 0, g*37; k < 8*span; k, v = k+1, v+HugePages+1 {
				vpn := ptModelBase - 1 + v%span
				e, ok := pt.Lookup(vpn)
				if w := want[vpn]; ok != w.ok || e != w.e || pt.CarvedAt(vpn) != w.carved {
					t.Errorf("goroutine %d: Lookup(%d) = %+v %v, carved %v; want %+v", g, vpn, e, ok, pt.CarvedAt(vpn), w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

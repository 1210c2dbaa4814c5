package core

// The tests of the PowerVM platform that Fig. 6 (paper §5.B) runs on.
// PowerVM with Active Memory Sharing is modelled by powerRun as a
// hypervisor.Host with no host-kernel reserve, whose LPARs are VM processes
// with no overhead, swept by one full KSM pass per sharing round. These tests
// drive that configuration directly and pin the behaviour the figure's
// totals depend on: demand paging, merging of identical pages across LPARs,
// the copy-on-write break, the volatility gate and frame conservation.

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const lparPage = mem.DefaultPageSize

// powerHost is the POWER host of Fig. 6 and its page-sharing scanner.
type powerHost struct {
	host *hypervisor.Host
	ksm  *ksm.KSM
}

func newPowerHost(t testing.TB, ramPages int) *powerHost {
	t.Helper()
	host := hypervisor.NewHost(hypervisor.Config{Name: "PS701", RAMBytes: int64(ramPages) * lparPage}, simclock.New())
	return &powerHost{host: host, ksm: ksm.New(host, ksm.DefaultConfig())}
}

// newLPAR boots a partition of guestPages pages, as powerRun does: a VM
// process with no overhead of its own, registered with the scanner.
func (m *powerHost) newLPAR(guestPages int, seed mem.Seed) *hypervisor.VMProcess {
	vm := m.host.NewVM(hypervisor.VMConfig{
		Name:          fmt.Sprintf("LPAR %d", len(m.host.VMs())+1),
		GuestMemBytes: int64(guestPages) * lparPage,
		Seed:          seed,
	})
	m.ksm.Register(vm)
	return vm
}

// sharePass runs one full scan over every registered guest page: one
// sharing round of Fig. 6.
func (m *powerHost) sharePass() {
	pages := 0
	for _, vm := range m.host.VMs() {
		pages += vm.GuestPages()
	}
	m.ksm.ScanChunk(pages)
}

// inUse is the host's total physical memory in use, the one quantity
// Fig. 6 reads.
func (m *powerHost) inUse() int64 { return m.host.Phys().BytesInUse() }

// merges counts the pages the scanner has merged onto a shared frame.
func (m *powerHost) merges() uint64 {
	s := m.ksm.Stats()
	return s.StableMerges + s.UnstableMerges
}

// verify checks the scanner's index and the host's frame ownership.
func (m *powerHost) verify(t testing.TB) {
	t.Helper()
	if err := m.ksm.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.host.CheckLeaks(m.ksm.StableFrames()); err != nil {
		t.Fatal(err)
	}
}

func TestLPARDemandPaging(t *testing.T) {
	m := newPowerHost(t, 128)
	lp := m.newLPAR(32, 1)
	if m.inUse() != 0 {
		t.Fatal("eager allocation")
	}
	lp.FillGuestPage(3, 42)
	if m.inUse() != lparPage {
		t.Fatalf("in use = %d", m.inUse())
	}
	want := mem.FillBytes(lparPage, 42)
	got := lp.ReadGuestPage(3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("content mismatch")
		}
	}
}

func TestSharePassMergesIdenticalPages(t *testing.T) {
	m := newPowerHost(t, 256)
	lp1 := m.newLPAR(32, 1)
	lp2 := m.newLPAR(32, 2)
	for i := uint64(0); i < 8; i++ {
		lp1.FillGuestPage(i, mem.Seed(100+i))
		lp2.FillGuestPage(i, mem.Seed(100+i))
	}
	before := m.inUse()
	m.sharePass() // records checksums (volatility gate)
	m.sharePass() // merges
	after := m.inUse()
	if want := before - 8*lparPage; after != want {
		t.Fatalf("after sharing = %d, want %d", after, want)
	}
	if m.merges() != 8 {
		t.Fatalf("merged = %d", m.merges())
	}
	if s := m.ksm.Stats(); s.PagesShared != 8 || s.SavedBytes != 8*lparPage {
		t.Fatalf("shared frames = %d, saved = %d", s.PagesShared, s.SavedBytes)
	}
	m.verify(t)
}

func TestSharePassThreeWay(t *testing.T) {
	m := newPowerHost(t, 256)
	var lps []*hypervisor.VMProcess
	for i := 0; i < 3; i++ {
		lps = append(lps, m.newLPAR(16, mem.Seed(i+1)))
	}
	for _, lp := range lps {
		lp.FillGuestPage(0, 7)
	}
	m.sharePass()
	m.sharePass()
	// 3 copies collapse to 1: two pages saved.
	if m.inUse() != lparPage {
		t.Fatalf("in use = %d, want one page", m.inUse())
	}
	m.verify(t)
}

func TestCOWBreakAfterSharing(t *testing.T) {
	m := newPowerHost(t, 256)
	lp1 := m.newLPAR(16, 1)
	lp2 := m.newLPAR(16, 2)
	lp1.FillGuestPage(0, 7)
	lp2.FillGuestPage(0, 7)
	m.sharePass()
	m.sharePass()
	lp2.WriteGuestPage(0, 0, []byte{9})
	if n := m.host.Stats().COWBreaks; n != 1 {
		t.Fatalf("COW breaks = %d", n)
	}
	b1 := lp1.ReadGuestPage(0)
	b2 := lp2.ReadGuestPage(0)
	if b1[0] == b2[0] {
		t.Fatal("write leaked through sharing")
	}
	m.verify(t)
}

func TestGuestOSBootsOnLPAR(t *testing.T) {
	m := newPowerHost(t, 1024)
	lp := m.newLPAR(256, 1)
	k := guestos.Boot(lp, guestos.KernelConfig{Version: "AIX-6.1-TL6", TextBytes: 8 * lparPage, DataBytes: 4 * lparPage})
	p := k.Spawn("java", true)
	v := p.MapAnon(8, "heap", "h")
	p.TouchAll(v, true)
	if k.UsedGuestPages() == 0 {
		t.Fatal("guest OS did not boot on the LPAR")
	}
	// Identical kernels on two LPARs share after a pass.
	lp2 := m.newLPAR(256, 2)
	guestos.Boot(lp2, guestos.KernelConfig{Version: "AIX-6.1-TL6", TextBytes: 8 * lparPage, DataBytes: 4 * lparPage})
	m.sharePass()
	m.sharePass()
	if m.merges() < 8 {
		t.Fatalf("kernel text not shared across LPARs: merged %d", m.merges())
	}
	m.verify(t)
}

func TestReleaseGuestPage(t *testing.T) {
	m := newPowerHost(t, 128)
	lp := m.newLPAR(16, 1)
	lp.FillGuestPage(0, 5)
	lp.ReleaseGuestPage(0)
	if m.inUse() != 0 {
		t.Fatal("release did not free")
	}
}

func TestSharePassIdempotent(t *testing.T) {
	m := newPowerHost(t, 256)
	lp1 := m.newLPAR(16, 1)
	lp2 := m.newLPAR(16, 2)
	for i := uint64(0); i < 4; i++ {
		lp1.FillGuestPage(i, mem.Seed(i))
		lp2.FillGuestPage(i, mem.Seed(i))
	}
	m.sharePass()
	m.sharePass()
	merged, inUse := m.merges(), m.inUse()
	m.sharePass()
	if m.merges() != merged {
		t.Fatalf("extra pass re-merged: %d -> %d", merged, m.merges())
	}
	if m.inUse() != inUse {
		t.Fatalf("extra pass changed the total: %d -> %d", inUse, m.inUse())
	}
}

func TestVolatilityGateSkipsChangingPages(t *testing.T) {
	m := newPowerHost(t, 256)
	lp1 := m.newLPAR(16, 1)
	lp2 := m.newLPAR(16, 2)
	for pass := 0; pass < 4; pass++ {
		lp1.FillGuestPage(0, mem.Seed(pass))
		lp2.FillGuestPage(0, mem.Seed(pass))
		m.sharePass()
	}
	if m.merges() != 0 {
		t.Fatal("volatile pages were merged")
	}
	if m.ksm.Stats().ChecksumSkips == 0 {
		t.Fatal("gate never fired")
	}
}

// Property: share passes conserve frame accounting (in use + free == total)
// and never lose page content.
func TestPropertySharePassConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		m := newPowerHost(t, 1024)
		lps := []*hypervisor.VMProcess{m.newLPAR(32, 1), m.newLPAR(32, 2)}
		content := map[[2]int]mem.Seed{}
		for i, op := range ops {
			lp := lps[int(op)%2]
			gpfn := uint64(op>>1) % 16
			switch (int(op) + i) % 3 {
			case 0:
				// Convergent content.
				s := mem.Seed(1000 + gpfn)
				lp.FillGuestPage(gpfn, s)
				content[[2]int{int(op) % 2, int(gpfn)}] = s
			case 1:
				// Divergent content.
				s := mem.Combine(mem.Seed(op), mem.Seed(i))
				lp.FillGuestPage(gpfn, s)
				content[[2]int{int(op) % 2, int(gpfn)}] = s
			case 2:
				m.sharePass()
			}
		}
		m.sharePass()
		m.sharePass()
		pm := m.host.Phys()
		if pm.FramesInUse()+pm.FreeFrames() != pm.TotalFrames() {
			return false
		}
		if m.ksm.Verify() != nil || m.host.CheckLeaks(m.ksm.StableFrames()) != nil {
			return false
		}
		// Every page still reads back its last written content.
		for key, seed := range content {
			got := lps[key[0]].ReadGuestPage(uint64(key[1]))
			want := mem.FillBytes(lparPage, seed)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

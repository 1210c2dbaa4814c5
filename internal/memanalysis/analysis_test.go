package memanalysis

import (
	"testing"

	"repro/internal/cds"
	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/jvm"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const (
	pg    = mem.DefaultPageSize
	scale = 64
)

// cluster builds nVMs guests each running one JVM that loads the Derby
// group, optionally from a shared cache copied into every VM.
type cluster struct {
	clock   *simclock.Clock
	host    *hypervisor.Host
	kernels []*guestos.Kernel
	jvms    []*jvm.JVM
	scanner *ksm.KSM
}

func buildCluster(t *testing.T, nVMs int, shared bool) *cluster {
	t.Helper()
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: int64(nVMs+1) * (64 << 20)}, clock)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)

	var img *cds.Image
	var fileBytes []byte
	if shared {
		img = cds.Build("was", jvm.RuntimeVersion, 8<<20, corpus.Stack(classlib.GroupDerby, classlib.GroupOSGi))
		fileBytes = img.FileBytes(corpus)
	}

	c := &cluster{clock: clock, host: host}
	for i := 0; i < nVMs; i++ {
		vmp := host.NewVM(hypervisor.VMConfig{
			Name: "VM", GuestMemBytes: 48 << 20, OverheadBytes: 1 << 20, Seed: mem.Seed(i + 1),
		})
		k := guestos.Boot(vmp, guestos.KernelConfig{
			Version: "2.6.18", TextBytes: 2 << 20, DataBytes: 1 << 20, SlabBytes: 1 << 20,
		})
		opts := jvm.Options{GCPolicy: jvm.OptThruput, HeapBytes: 8 << 20, Threads: 4}
		if shared {
			k.FS().Install(&guestos.File{Path: jvm.CachePath, Data: fileBytes})
			opts.CacheImage = img
		}
		j := jvm.Launch(k, "java-was", corpus, opts, jvm.DefaultSizes(scale))
		j.LoadGroups(true, classlib.GroupDerby, classlib.GroupOSGi)
		// A little request churn so the heap and work areas are populated.
		for it := 0; it < 400; it++ {
			j.Heap().Alloc(1024+it%2048, mem.Seed(it), it%8 == 0)
		}
		// A small native daemon per guest.
		d := k.Spawn("syslogd", false)
		dv := d.MapAnon(16, "anon", "daemon-heap")
		d.TouchAll(dv, true)
		c.kernels = append(c.kernels, k)
		c.jvms = append(c.jvms, j)
	}
	c.scanner = ksm.New(host, ksm.DefaultConfig())
	c.scanner.RegisterAll()
	return c
}

func (c *cluster) scan(passes int) {
	total := 0
	for _, vm := range c.host.VMs() {
		total += vm.GuestPages()
	}
	c.scanner.ScanChunk(total*passes + 1)
}

func TestAnalyzeAttributesEveryUsedFrame(t *testing.T) {
	c := buildCluster(t, 2, false)
	a := Analyze(c.host, c.kernels)
	if a.TotalGuestBytes() == 0 {
		t.Fatal("nothing attributed")
	}
	bds := a.VMBreakdowns()
	if len(bds) != 2 {
		t.Fatalf("breakdowns = %d", len(bds))
	}
	for _, b := range bds {
		if b.JavaBytes == 0 || b.KernelBytes == 0 || b.VMOverheadBytes == 0 || b.OtherProcBytes == 0 {
			t.Fatalf("empty component in %+v", b)
		}
	}
}

func TestNoSharingBeforeKSM(t *testing.T) {
	c := buildCluster(t, 2, false)
	a := Analyze(c.host, c.kernels)
	for _, b := range a.VMBreakdowns() {
		if b.SavingsBytes != 0 {
			t.Fatalf("savings %d before any scanning", b.SavingsBytes)
		}
	}
}

func TestKSMSharesKernelTextAndCode(t *testing.T) {
	c := buildCluster(t, 2, false)
	c.scan(3)
	a := Analyze(c.host, c.kernels)
	bds := a.VMBreakdowns()
	// Exactly one VM pays for the shared pages; the other saves.
	totalSavings := bds[0].SavingsBytes + bds[1].SavingsBytes
	if totalSavings == 0 {
		t.Fatal("no TPS savings after scanning identical guests")
	}
	// Kernel text (2 MB) should be fully shared: one VM's worth of savings
	// at least that big.
	if totalSavings < 2<<20 {
		t.Fatalf("savings %d smaller than kernel text", totalSavings)
	}
}

func TestJavaBreakdownCategories(t *testing.T) {
	c := buildCluster(t, 2, false)
	a := Analyze(c.host, c.kernels)
	jbs := a.JavaBreakdowns()
	if len(jbs) != 2 {
		t.Fatalf("java breakdowns = %d", len(jbs))
	}
	for _, b := range jbs {
		for _, cat := range []string{jvm.CatCode, jvm.CatClassMeta, jvm.CatHeap, jvm.CatJVMWork, jvm.CatStack} {
			if b.ByCat[cat].MappedBytes == 0 {
				t.Fatalf("category %q empty in %s", cat, b.ProcName)
			}
		}
		if b.TotalMapped() == 0 {
			t.Fatal("zero total")
		}
	}
}

func TestBaselineClassMetadataUnshared(t *testing.T) {
	c := buildCluster(t, 3, false)
	c.scan(3)
	a := Analyze(c.host, c.kernels)
	for _, b := range a.JavaBreakdowns() {
		cm := b.ByCat[jvm.CatClassMeta]
		frac := float64(cm.SharedBytes) / float64(cm.MappedBytes)
		if frac > 0.10 {
			t.Fatalf("baseline class metadata %.1f%% shared; paper expects ≈0", frac*100)
		}
	}
}

func TestSharedCacheClassMetadataShared(t *testing.T) {
	c := buildCluster(t, 3, true)
	c.scan(3)
	a := Analyze(c.host, c.kernels)
	jbs := a.JavaBreakdowns()
	nonPrimarySharedHigh := 0
	for _, b := range jbs {
		cm := b.ByCat[jvm.CatClassMeta]
		frac := float64(cm.SharedBytes) / float64(cm.MappedBytes)
		if frac > 0.5 {
			nonPrimarySharedHigh++
		}
	}
	// With 3 VMs, the owner JVM pays and the two non-primary JVMs see their
	// class metadata mostly eliminated (paper: 89.6 %).
	if nonPrimarySharedHigh != 2 {
		t.Fatalf("%d of 3 JVMs share most class metadata, want 2", nonPrimarySharedHigh)
	}
}

func TestCodeAreaSharedAcrossVMs(t *testing.T) {
	c := buildCluster(t, 2, false)
	c.scan(3)
	a := Analyze(c.host, c.kernels)
	jbs := a.JavaBreakdowns()
	sharedSum := jbs[0].ByCat[jvm.CatCode].SharedBytes + jbs[1].ByCat[jvm.CatCode].SharedBytes
	mapped := jbs[0].ByCat[jvm.CatCode].MappedBytes
	// One JVM's worth of code should be shared (the other's pages merged
	// into it): at least half of one mapping.
	if sharedSum < mapped/2 {
		t.Fatalf("code sharing %d of %d mapped; expected most of one copy", sharedSum, mapped)
	}
}

func TestOwnerIsSmallestPIDJava(t *testing.T) {
	c := buildCluster(t, 3, true)
	c.scan(3)
	jbs := Analyze(c.host, c.kernels).JavaBreakdowns()
	owner := jbs[0]
	for _, b := range jbs {
		if b.PID < owner.PID {
			owner = b
		}
	}
	// The smallest-PID JVM must have the least shared class metadata (it
	// owns the cache pages).
	ownerShared := owner.ByCat[jvm.CatClassMeta].SharedBytes
	for _, b := range jbs {
		if b.PID != owner.PID && b.ByCat[jvm.CatClassMeta].SharedBytes <= ownerShared {
			t.Fatalf("owner JVM (pid %d) shares more than non-primary (pid %d)", owner.PID, b.PID)
		}
	}
}

func TestPSSVersusOwnerOriented(t *testing.T) {
	c := buildCluster(t, 2, true)
	c.scan(3)
	a := Analyze(c.host, c.kernels)
	var pssSum, ownerSum float64
	for _, j := range c.jvms {
		pssSum += a.PSS(j.Process())
		ownerSum += float64(a.OwnerOrientedBytes(j.Process()))
	}
	if pssSum <= 0 || ownerSum <= 0 {
		t.Fatal("empty accounting")
	}
	// Both schemes conserve total frames mapped exclusively by Java; PSS of
	// a shared frame is split while owner-oriented gives it to one, so the
	// totals over the same process set must agree within the frames shared
	// with non-Java users.
	diff := pssSum - ownerSum
	if diff < 0 {
		diff = -diff
	}
	if diff > pssSum*0.25 {
		t.Fatalf("PSS %0.f vs owner %0.f diverge too much", pssSum, ownerSum)
	}
}

func TestTotalSavingsMatchesVMSavings(t *testing.T) {
	c := buildCluster(t, 3, true)
	c.scan(3)
	a := Analyze(c.host, c.kernels)
	var vmSavings int64
	for _, b := range a.VMBreakdowns() {
		vmSavings += b.SavingsBytes
	}
	// Cross-VM savings cannot exceed total extra-mapper savings.
	if vmSavings > a.TotalSavingsBytes() {
		t.Fatalf("VM savings %d exceed total %d", vmSavings, a.TotalSavingsBytes())
	}
	if vmSavings == 0 {
		t.Fatal("no savings in shared-cache cluster")
	}
}

func TestCachePagesStaySharedAfterUnload(t *testing.T) {
	// §4.B: "the preloaded read-only part of an unloaded class will stay in
	// memory as a part of the shared class cache ... the pages will remain
	// shared if they are TPS-shared."
	c := buildCluster(t, 2, true)
	c.scan(3)
	classMetaShared := func() (s int64) {
		for _, jb := range Analyze(c.host, c.kernels).JavaBreakdowns() {
			s += jb.ByCat[jvm.CatClassMeta].SharedBytes
		}
		return s
	}
	sharedBefore := classMetaShared()
	if sharedBefore == 0 {
		t.Fatal("setup: nothing shared")
	}
	// Unload half the Derby classes in one JVM.
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	derby := corpus.Group(classlib.GroupDerby)
	for _, cl := range derby[:len(derby)/2] {
		c.jvms[1].UnloadClass(cl.Name)
	}
	c.scan(2)
	if sharedAfter := classMetaShared(); sharedAfter < sharedBefore {
		t.Fatalf("class metadata sharing shrank on unload: %d -> %d", sharedBefore, sharedAfter)
	}
}

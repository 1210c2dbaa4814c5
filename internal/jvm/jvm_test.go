package jvm

import (
	"testing"

	"repro/internal/cds"
	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const (
	pg    = mem.DefaultPageSize
	scale = 64
)

func corpus() *classlib.Corpus { return classlib.NewCorpus(RuntimeVersion, scale) }

func bootGuest(t *testing.T, seed mem.Seed) *guestos.Kernel {
	if t != nil {
		t.Helper()
	}
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: 64 << 20}, clock)
	vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 48 << 20, Seed: seed})
	return guestos.Boot(vm, guestos.KernelConfig{Version: "2.6.18", TextBytes: 1 << 20})
}

func basicOpts() Options {
	return Options{GCPolicy: OptThruput, HeapBytes: 8 << 20, Threads: 4}
}

func launch(t *testing.T, k *guestos.Kernel, opts Options) *JVM {
	return Launch(k, "java-was", corpus(), opts, DefaultSizes(scale))
}

func TestLaunchCreatesRegions(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	cats := map[string]bool{}
	for _, v := range j.Process().VMAs() {
		cats[v.Category] = true
	}
	for _, want := range []string{CatCode, CatHeap, CatJVMWork, CatStack} {
		if !cats[want] {
			t.Fatalf("no VMA with category %q after launch", want)
		}
	}
	if j.Process().ResidentPages() == 0 {
		t.Fatal("nothing resident after launch")
	}
}

func TestCodeAreaIdenticalAcrossVMs(t *testing.T) {
	k1 := bootGuest(t, 1)
	k2 := bootGuest(t, 2)
	j1 := launch(t, k1, basicOpts())
	j2 := launch(t, k2, basicOpts())
	var v1, v2 *guestos.VMA
	for _, v := range j1.Process().VMAs() {
		if v.Label == "/opt/ibm/java/lib/libj9vm.so" {
			v1 = v
		}
	}
	for _, v := range j2.Process().VMAs() {
		if v.Label == "/opt/ibm/java/lib/libj9vm.so" {
			v2 = v
		}
	}
	if v1 == nil || v2 == nil {
		t.Fatal("libj9vm mapping missing")
	}
	b1 := j1.Process().ReadPage(v1.Start + 3)
	b2 := j2.Process().ReadPage(v2.Start + 3)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("JVM library content differs across VMs with same version")
		}
	}
}

func TestLoadGroupsWithoutCachePrivate(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	j.LoadGroups(true, classlib.GroupJDK, classlib.GroupDerby)
	s := j.LoadStats()
	want := len(corpus().Stack(classlib.GroupJDK, classlib.GroupDerby))
	if s.ClassesLoaded != want {
		t.Fatalf("loaded %d, want %d", s.ClassesLoaded, want)
	}
	if s.ROMFromCache != 0 || s.ROMPrivate != want {
		t.Fatalf("cache split wrong: %+v", s)
	}
	if s.ROMBytesPrivate == 0 || s.RAMBytes == 0 {
		t.Fatalf("no metadata bytes recorded: %+v", s)
	}
}

func TestLoadOrderPerturbedPerProcess(t *testing.T) {
	k1 := bootGuest(t, 1)
	k2 := bootGuest(t, 2)
	j1 := launch(t, k1, basicOpts())
	j2 := launch(t, k2, basicOpts())
	j1.LoadGroups(true, classlib.GroupDerby)
	j2.LoadGroups(true, classlib.GroupDerby)
	l1, l2 := j1.LoadedClasses(), j2.LoadedClasses()
	if len(l1) != len(l2) {
		t.Fatal("different class sets loaded")
	}
	same := true
	for i := range l1 {
		if l1[i].Name != l2[i].Name {
			same = false
			break
		}
	}
	if same {
		t.Fatal("load order identical across processes; perturbation missing")
	}
	// Same set regardless of order.
	set1 := map[string]bool{}
	for _, cl := range l1 {
		set1[cl.Name] = true
	}
	for _, cl := range l2 {
		if !set1[cl.Name] {
			t.Fatalf("class %s loaded in one process only", cl.Name)
		}
	}
}

func withCache(t *testing.T, k *guestos.Kernel, c *classlib.Corpus, groups ...classlib.Group) Options {
	if t != nil {
		t.Helper()
	}
	img := cds.Build("was", RuntimeVersion, 16<<20, c.Stack(groups...))
	k.FS().Install(&guestos.File{Path: CachePath, Data: img.FileBytes(c)})
	opts := basicOpts()
	opts.CacheImage = img
	return opts
}

func TestLoadGroupsWithCache(t *testing.T) {
	k := bootGuest(t, 1)
	c := corpus()
	opts := withCache(t, k, c, classlib.GroupDerby)
	j := Launch(k, "java", c, opts, DefaultSizes(scale))
	j.LoadGroups(true, classlib.GroupDerby)
	s := j.LoadStats()
	if s.ROMPrivate != 0 {
		t.Fatalf("cache-aware load left %d private ROMs", s.ROMPrivate)
	}
	if s.ROMFromCache != len(c.Group(classlib.GroupDerby)) {
		t.Fatalf("ROMFromCache = %d", s.ROMFromCache)
	}
	if s.RAMBytes == 0 {
		t.Fatal("RAM classes must stay private even with the cache")
	}
}

func TestEJBLoadersBypassCache(t *testing.T) {
	k := bootGuest(t, 1)
	c := corpus()
	opts := withCache(t, k, c, classlib.GroupDerby, classlib.GroupDayTraderEJB)
	j := Launch(k, "java", c, opts, DefaultSizes(scale))
	j.LoadGroups(false, classlib.GroupDayTraderEJB) // EJB loaders are not cache-aware
	s := j.LoadStats()
	if s.ROMFromCache != 0 {
		t.Fatal("EJB classes must not come from the cache")
	}
	if s.ROMPrivate == 0 {
		t.Fatal("EJB classes not loaded privately")
	}
}

func TestCachePagesIdenticalAcrossVMs(t *testing.T) {
	c := corpus()
	img := cds.Build("was", RuntimeVersion, 16<<20, c.Stack(classlib.GroupDerby))
	fileBytes := img.FileBytes(c)

	readCachePage := func(seed mem.Seed) []byte {
		k := bootGuest(nil, seed)
		k.FS().Install(&guestos.File{Path: CachePath, Data: fileBytes})
		opts := basicOpts()
		opts.CacheImage = img
		j := Launch(k, "java", c, opts, DefaultSizes(scale))
		j.LoadGroups(true, classlib.GroupDerby)
		return append([]byte(nil), j.Process().ReadPage(j.cacheVMA.Start+5)...)
	}
	p1 := readCachePage(1)
	p2 := readCachePage(2)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("shared cache pages differ across VMs")
		}
	}
}

func TestJITWarmGeneratesPerProcessCode(t *testing.T) {
	k1 := bootGuest(t, 1)
	k2 := bootGuest(t, 2)
	j1 := launch(t, k1, basicOpts())
	j2 := launch(t, k2, basicOpts())
	for _, j := range []*JVM{j1, j2} {
		j.LoadGroups(true, classlib.GroupDerby)
		j.JITWarm(20)
	}
	if j1.JIT().Stats().MethodsCompiled == 0 {
		t.Fatal("nothing compiled")
	}
	if j1.JIT().Stats().MethodsCompiled != j2.JIT().Stats().MethodsCompiled {
		t.Fatal("hot-method selection not deterministic")
	}
	// Code pages must differ (profile-dependent content).
	var v1, v2 *guestos.VMA
	for _, v := range j1.Process().VMAs() {
		if v.Category == CatJITCode {
			v1 = v
			break
		}
	}
	for _, v := range j2.Process().VMAs() {
		if v.Category == CatJITCode {
			v2 = v
			break
		}
	}
	b1 := j1.Process().ReadPage(v1.Start)
	b2 := j2.Process().ReadPage(v2.Start)
	same := true
	for i := range b1 {
		if b1[i] != b2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("JIT code identical across processes")
	}
}

func TestJITScratchRecycledStaleAndBounded(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	j.LoadGroups(true, classlib.GroupDerby, classlib.GroupOSGi)
	j.JITWarm(20)
	// The scratch pool is bounded by the configured cap plus one segment,
	// and its recycled pages keep stale (nonzero) compiler state.
	var pages int
	stale := false
	for _, v := range j.Process().VMAs() {
		if v.Category != CatJITWork {
			continue
		}
		for vpn := v.Start; vpn < v.End; vpn++ {
			if _, ok := j.Process().PageTable().Lookup(vpn); !ok {
				continue
			}
			pages++
			b := j.Process().ReadPage(vpn)
			for _, c := range b {
				if c != 0 {
					stale = true
					break
				}
			}
		}
	}
	capPages := int(DefaultSizes(scale).JITScratchBytes/4096) + 64<<10/4096 + 8
	if pages > capPages {
		t.Fatalf("scratch resident %d pages exceeds cap %d", pages, capPages)
	}
	if !stale {
		t.Fatal("recycled scratch pages are all zero; free() must not zero")
	}
}

func TestHeapAllocAndCompaction(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	h := j.Heap()
	var keep *Object
	for i := 0; i < 4000; i++ {
		long := i%10 == 0
		o := h.Alloc(2048, mem.Seed(i), long)
		if i == 0 {
			keep = o
		}
	}
	if h.Stats().MajorGCs == 0 {
		t.Fatal("no GC under allocation pressure")
	}
	if keep.Addr() >= h.spaceBase()+Addr(h.allocOff) {
		t.Fatal("survivor not compacted below the allocation pointer")
	}
}

func TestHeapHeaderMutation(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	h := j.Heap()
	o := h.Alloc(4096, 42, true)
	vpn := mem.VPN(int64(o.Addr()) / pg)
	before := append([]byte(nil), j.Process().ReadPage(vpn)...)
	h.Mutate(o)
	after := j.Process().ReadPage(vpn)
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("header mutation left the page untouched")
	}
	if h.Stats().HeaderWrites != 1 {
		t.Fatalf("HeaderWrites = %d", h.Stats().HeaderWrites)
	}
}

func TestHeapOOM(t *testing.T) {
	k := bootGuest(t, 1)
	opts := basicOpts()
	opts.HeapBytes = 1 << 20
	j := launch(t, k, opts)
	defer func() {
		if recover() == nil {
			t.Fatal("no OOM when live set exceeds the heap")
		}
	}()
	for i := 0; ; i++ {
		j.Heap().Alloc(4096, mem.Seed(i), true) // everything long-lived
	}
}

func TestGenConPromotion(t *testing.T) {
	k := bootGuest(t, 1)
	opts := Options{GCPolicy: GenCon, NurseryBytes: 4 << 20, TenuredBytes: 2 << 20, Threads: 2}
	j := launch(t, k, opts)
	h := j.Heap()
	var longs []*Object
	for i := 0; i < 3000; i++ {
		long := i%20 == 0
		o := h.Alloc(2048, mem.Seed(i), long)
		if long {
			longs = append(longs, o)
		}
		// Release old session objects so tenured space turns over.
		if len(longs) > 200 {
			h.Release(longs[0])
			longs = longs[1:]
		}
	}
	s := h.Stats()
	if s.MinorGCs == 0 {
		t.Fatal("no minor GCs")
	}
	if s.PromotedBytes == 0 {
		t.Fatal("nothing promoted to tenured")
	}
}

func TestNIOTransferIdenticalAcrossVMs(t *testing.T) {
	k1 := bootGuest(t, 1)
	k2 := bootGuest(t, 2)
	j1 := launch(t, k1, basicOpts())
	j2 := launch(t, k2, basicOpts())
	for _, j := range []*JVM{j1, j2} {
		for step := 0; step < 10; step++ {
			j.Work().NIOTransfer("daytrader", step, 32<<10, 0)
		}
	}
	b1 := j1.Process().ReadPage(j1.work.nio.Start)
	b2 := j2.Process().ReadPage(j2.work.nio.Start)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("NIO buffers differ across VMs for the same benchmark stream")
		}
	}
	// With a per-VM salt (real-world traffic) they must differ.
	j1.Work().NIOTransfer("daytrader", 99, 32<<10, 1)
	j2.Work().NIOTransfer("daytrader", 99, 32<<10, 2)
}

func TestMallocPerProcessContent(t *testing.T) {
	k1 := bootGuest(t, 1)
	k2 := bootGuest(t, 2)
	j1 := launch(t, k1, basicOpts())
	j2 := launch(t, k2, basicOpts())
	a1 := j1.Work().Malloc(8192)
	a2 := j2.Work().Malloc(8192)
	b1 := j1.Process().ReadPage(mem.VPN(int64(a1) / pg))
	b2 := j2.Process().ReadPage(mem.VPN(int64(a2) / pg))
	same := true
	for i := range b1 {
		if b1[i] != b2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("malloc content identical across processes")
	}
}

func TestBulkReserveZeroPages(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	found := false
	for _, v := range j.Process().VMAs() {
		if v.Label != "bulk-reserved" {
			continue
		}
		found = true
		b := j.Process().ReadPage(v.Start)
		for _, c := range b {
			if c != 0 {
				t.Fatal("bulk-reserved page not zero")
			}
		}
	}
	if !found {
		t.Fatal("no bulk-reserved VMA")
	}
}

func TestPerturbPreservesSet(t *testing.T) {
	c := corpus()
	in := c.Stack(classlib.GroupJDK)
	out := classlib.ShuffleWindows(in, 12345, loadOrderWindow)
	if len(out) != len(in) {
		t.Fatal("perturb changed length")
	}
	seen := map[string]int{}
	for _, cl := range in {
		seen[cl.Name]++
	}
	for _, cl := range out {
		seen[cl.Name]--
	}
	for name, n := range seen {
		if n != 0 {
			t.Fatalf("perturb corrupted multiset at %s", name)
		}
	}
	// Deterministic for the same seed.
	out2 := classlib.ShuffleWindows(in, 12345, loadOrderWindow)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("perturb not deterministic")
		}
	}
}

func TestLaunchRejectsStaleCache(t *testing.T) {
	k := bootGuest(t, 1)
	c := corpus()
	img := cds.Build("was", "some-other-jvm-level", 8<<20, c.Stack(classlib.GroupDerby))
	k.FS().Install(&guestos.File{Path: CachePath, Data: img.FileBytes(c)})
	opts := basicOpts()
	opts.CacheImage = img
	defer func() {
		if recover() == nil {
			t.Fatal("stale cache accepted at attach")
		}
	}()
	Launch(k, "java", c, opts, DefaultSizes(scale))
}

func TestUnloadClassSemantics(t *testing.T) {
	k := bootGuest(t, 1)
	c := corpus()
	opts := withCache(t, k, c, classlib.GroupDerby)
	j := Launch(k, "java", c, opts, DefaultSizes(scale))
	j.LoadGroups(true, classlib.GroupDerby)
	name := c.Group(classlib.GroupDerby)[0].Name
	residentBefore := j.Process().ResidentPages()
	if !j.UnloadClass(name) {
		t.Fatal("unload of loaded class failed")
	}
	if j.UnloadClass(name) {
		t.Fatal("double unload succeeded")
	}
	s := j.LoadStats()
	if s.ClassesUnloaded != 1 {
		t.Fatalf("ClassesUnloaded = %d", s.ClassesUnloaded)
	}
	// §4.B: the cache region stays mapped — unloading releases no pages.
	if got := j.Process().ResidentPages(); got != residentBefore {
		t.Fatalf("resident changed on unload: %d -> %d", residentBefore, got)
	}
	// Reloading is served from the cache again.
	before := j.LoadStats().ROMFromCache
	j.LoadGroups(true, classlib.GroupDerby)
	if j.LoadStats().ROMFromCache != before+1 {
		t.Fatal("reload did not hit the cache")
	}
}

func TestNIOTransferNeverOverrunsPool(t *testing.T) {
	// Regression: a pool size that is not page-aligned must not let the
	// write cursor run past the mapped VMA (caught by BenchmarkFig8 at
	// scale 48, where 5 MB/48 is a fractional page count).
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	j.Work().SetupNIO(106666) // deliberately unaligned
	for step := 0; step < 500; step++ {
		j.Work().NIOTransfer("dt", step, 39321, 0) // unaligned transfer size
	}
}

// benchJVM launches a JVM on a fresh guest with guestBytes of RAM.
func benchJVM(guestBytes int64, corpus *classlib.Corpus, heapBytes int64, sizes Sizes) *JVM {
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "m", RAMBytes: 2 * guestBytes}, clock)
	vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: guestBytes, Seed: 1})
	k := guestos.Boot(vm, guestos.KernelConfig{Version: "bench", TextBytes: 1 << 20})
	return Launch(k, "java", corpus, Options{GCPolicy: OptThruput, HeapBytes: heapBytes, Threads: 2}, sizes)
}

// BenchmarkHeapAllocGC measures object allocation with GC cycles included.
func BenchmarkHeapAllocGC(b *testing.B) {
	j := benchJVM(1<<27, classlib.NewCorpus(RuntimeVersion, 48), 16<<20, DefaultSizes(48))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Heap().Alloc(2048, mem.Seed(i), i%16 == 0)
	}
	b.SetBytes(2048)
}

// BenchmarkClassLoadPrivate measures class loading into private segments.
func BenchmarkClassLoadPrivate(b *testing.B) {
	j := benchJVM(1<<29, classlib.NewCorpus(RuntimeVersion, 1), 8<<20, DefaultSizes(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.LoadGroups(true, classlib.GroupWASCore)
		if i == 0 {
			b.SetBytes(int64(j.LoadStats().ROMBytesPrivate + j.LoadStats().RAMBytes))
		}
	}
}

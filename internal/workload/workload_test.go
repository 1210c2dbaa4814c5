package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/simclock"
)

const (
	pg    = mem.DefaultPageSize
	scale = 64
)

func bootGuest(t *testing.T, seed mem.Seed) *guestos.Kernel {
	t.Helper()
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: 96 << 20}, clock)
	vm := host.NewVM(hypervisor.VMConfig{Name: "vm", GuestMemBytes: 64 << 20, Seed: seed})
	return guestos.Boot(vm, guestos.KernelConfig{Version: "2.6.18", TextBytes: 1 << 20})
}

func TestSpecsEncodeTable3(t *testing.T) {
	dt := DayTrader()
	if dt.ClientThreads != 12 || dt.HeapBytes != 530<<20 || dt.CacheBytes != 120<<20 {
		t.Fatalf("DayTrader spec wrong: %+v", dt)
	}
	se := SPECjEnterprise()
	if se.InjectionRate != 15 || se.GCPolicy != jvm.GenCon || se.NurseryBytes != 530<<20 || se.TenuredBytes != 200<<20 {
		t.Fatalf("SPECjE spec wrong: %+v", se)
	}
	tw := TPCW()
	if tw.ClientThreads != 10 || tw.HeapBytes != 512<<20 {
		t.Fatalf("TPC-W spec wrong: %+v", tw)
	}
	tu := Tuscany()
	if tu.ClientThreads != 7 || tu.HeapBytes != 32<<20 || tu.CacheBytes != 25<<20 {
		t.Fatalf("Tuscany spec wrong: %+v", tu)
	}
	dp := DayTraderPOWER()
	if dp.ClientThreads != 25 || dp.HeapBytes != 1<<30 {
		t.Fatalf("DayTrader-POWER spec wrong: %+v", dp)
	}
	if len(AllSpecs()) != 5 {
		t.Fatal("AllSpecs incomplete")
	}
}

// quickSpec shrinks the deploy-time warmup for tests that don't need a
// steady-state heap.
func quickSpec(s Spec) Spec {
	s.WarmupRequests = 40
	return s
}

func TestDeployBaseline(t *testing.T) {
	k := bootGuest(t, 1)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	in := Deploy(k, corpus, quickSpec(DayTrader()), DeployConfig{Scale: scale})
	ls := in.JVM.LoadStats()
	want := len(corpus.Stack(append(DayTrader().CacheAwareGroups, DayTrader().PrivateGroups...)...))
	if ls.ClassesLoaded != want {
		t.Fatalf("loaded %d classes, want %d", ls.ClassesLoaded, want)
	}
	if ls.ROMFromCache != 0 {
		t.Fatal("baseline deployment used a cache")
	}
	if in.JVM.JIT().Stats().MethodsCompiled == 0 {
		t.Fatal("JIT not warmed")
	}
	// JARs were scanned into the page cache.
	if k.Stats().PageCacheFills == 0 {
		t.Fatal("no JAR scanning")
	}
}

func TestDeployWithSharedCache(t *testing.T) {
	k := bootGuest(t, 1)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	spec := quickSpec(DayTrader())
	img := BuildCache(corpus, spec, scale)
	k.FS().Install(&guestos.File{Path: jvm.CachePath, Data: img.FileBytes(corpus)})
	in := Deploy(k, corpus, spec, DeployConfig{Scale: scale, CacheImage: img})
	ls := in.JVM.LoadStats()
	if ls.ROMFromCache == 0 {
		t.Fatal("no classes from cache")
	}
	// EJB classes must stay private.
	nEJB := len(corpus.Group(classlib.GroupDayTraderEJB))
	if ls.ROMPrivate < nEJB {
		t.Fatalf("ROMPrivate = %d < %d EJB classes", ls.ROMPrivate, nEJB)
	}
	// Everything cacheable that fit is served from the cache.
	cacheable := len(corpus.Stack(spec.CacheAwareGroups...))
	if ls.ROMFromCache+len(img.Overflowed) < cacheable {
		t.Fatalf("cache hits %d + overflow %d < cacheable %d", ls.ROMFromCache, len(img.Overflowed), cacheable)
	}
}

func TestBuildCacheRespectsTable3Capacity(t *testing.T) {
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	img := BuildCache(corpus, DayTrader(), scale)
	if img.Capacity != (120<<20)/scale {
		t.Fatalf("capacity = %d", img.Capacity)
	}
	if img.UsedBytes() > img.Capacity {
		t.Fatal("over capacity")
	}
	tus := BuildCache(corpus, Tuscany(), scale)
	if tus.Capacity != (25<<20)/scale {
		t.Fatalf("tuscany capacity = %d", tus.Capacity)
	}
}

func TestIterateChurnsMemory(t *testing.T) {
	k := bootGuest(t, 1)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	spec := quickSpec(DayTrader())
	in := Deploy(k, corpus, spec, DeployConfig{Scale: scale})
	before := in.JVM.Heap().Stats()
	in.RunSteadyState(500)
	after := in.JVM.Heap().Stats()
	if after.Allocations <= before.Allocations {
		t.Fatal("no heap allocations")
	}
	if after.MajorGCs == 0 && after.MinorGCs == 0 {
		t.Fatal("no GC during steady state")
	}
	if after.HeaderWrites == 0 {
		t.Fatal("no header mutations")
	}
	if want := uint64(500 + spec.WarmupRequests); in.Stats().Requests != want {
		t.Fatalf("requests = %d, want %d", in.Stats().Requests, want)
	}
	if in.JVM.Work().Stats().NIOWrites == 0 {
		t.Fatal("no NIO traffic")
	}
}

func TestSessionCapBoundsLiveSet(t *testing.T) {
	k := bootGuest(t, 1)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	spec := quickSpec(Tuscany())
	in := Deploy(k, corpus, spec, DeployConfig{Scale: scale})
	in.RunSteadyState(in.sessionCap * spec.SessionEvery * 3)
	if got := len(in.sessions); got > in.sessionCap {
		t.Fatalf("sessions %d exceed cap %d", got, in.sessionCap)
	}
	if in.JVM.Heap().LiveObjects() == 0 {
		t.Fatal("no live objects")
	}
}

func TestJarsIdenticalAcrossGuests(t *testing.T) {
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	k1 := bootGuest(t, 1)
	k2 := bootGuest(t, 2)
	InstallJars(k1, corpus, DayTrader())
	InstallJars(k2, corpus, DayTrader())
	p := JarPath(classlib.GroupWASCore)
	f1 := k1.FS().MustLookup(p)
	f2 := k2.FS().MustLookup(p)
	if f1.SizeBytes != f2.SizeBytes || f1.ContentSeed != f2.ContentSeed {
		t.Fatal("JARs differ across guests built from the same base image")
	}
}

func TestDeployWarmupFillsHeap(t *testing.T) {
	k := bootGuest(t, 1)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	in := Deploy(k, corpus, DayTrader(), DeployConfig{Scale: scale})
	// Warmup scales: calibrated at scale 16, so a scale-64 heap needs a
	// quarter of the requests to reach its high-water mark.
	want := uint64(DayTrader().WarmupRequests * warmupCalibScale / scale)
	if in.Stats().Requests != want {
		t.Fatalf("warmup requests = %d, want %d", in.Stats().Requests, want)
	}
	// The heap must have cycled at least once during scenario init.
	if in.JVM.Heap().Stats().MajorGCs == 0 {
		t.Fatal("warmup did not reach a GC")
	}
}

func TestOperationMixDrawsAllOps(t *testing.T) {
	k := bootGuest(t, 1)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	spec := quickSpec(DayTrader())
	in := Deploy(k, corpus, spec, DeployConfig{Scale: scale})
	in.RunSteadyState(600)
	perOp := in.Stats().PerOp
	if len(perOp) != len(spec.Mix) {
		t.Fatalf("operations seen: %v, want all %d", perOp, len(spec.Mix))
	}
	var total uint64
	for _, n := range perOp {
		total += n
	}
	if total != in.Stats().Requests {
		t.Fatalf("per-op counts %d != requests %d", total, in.Stats().Requests)
	}
	// The heaviest-weighted op dominates.
	if perOp["quote"] < perOp["home"] {
		t.Fatalf("weights not respected: %v", perOp)
	}
}

func TestMixFactorsWeightBalanced(t *testing.T) {
	// The design contract: factors average ≈1.0 so mixes don't change the
	// aggregate allocation rate the calibration relies on.
	for _, s := range AllSpecs() {
		if len(s.Mix) == 0 {
			continue
		}
		var wSum, alloc, size, nio float64
		for _, op := range s.Mix {
			w := float64(op.Weight)
			wSum += w
			alloc += w * op.AllocFactor
			size += w * op.SizeFactor
			nio += w * op.NIOFactor
		}
		for name, v := range map[string]float64{"alloc": alloc / wSum, "size": size / wSum, "nio": nio / wSum} {
			if v < 0.85 || v > 1.15 {
				t.Fatalf("%s: %s factor mean %.2f not ≈1.0", s.Name, name, v)
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range AllSpecs() {
		if err := s.Validate(); err != nil {
			t.Fatalf("shipped spec invalid: %v", err)
		}
	}
	bad := DayTrader()
	bad.HeapBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero heap accepted")
	}
	bad = SPECjEnterprise()
	bad.NurseryBytes = 0
	if bad.Validate() == nil {
		t.Fatal("gencon without nursery accepted")
	}
	bad = DayTrader()
	bad.HeapBytes = bad.GuestMemBytes * 2
	if bad.Validate() == nil {
		t.Fatal("heap larger than guest accepted")
	}
	bad = DayTrader()
	bad.Mix = []Operation{{Name: "x", Weight: 0, AllocFactor: 1, SizeFactor: 1}}
	if bad.Validate() == nil {
		t.Fatal("zero-weight op accepted")
	}
	bad = DayTrader()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("nameless spec accepted")
	}
}

// TestCacheFileBytesPinned holds the serialized cache file of each Table III
// workload at scale 64 to a pinned hash. The file is what every guest maps,
// so a change to the layout, the header or the fill of any entry moves the
// class-metadata sharing of every figure; it shows up here first.
func TestCacheFileBytesPinned(t *testing.T) {
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{DayTrader(), "256145974d46dc90"},
		{SPECjEnterprise(), "9be019f9c59d8db7"},
		{TPCW(), "d6f8a3ed4371a98b"},
		{Tuscany(), "f7167ba0fe248fbf"},
	} {
		img := BuildCache(corpus, tc.spec, scale)
		sum := sha256.Sum256(img.FileBytes(corpus))
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%s: cache file hash %s, want %s", tc.spec.Name, got, tc.want)
		}
	}
}

// BenchmarkCacheBuild measures the cold-run population of a full WAS cache.
func BenchmarkCacheBuild(b *testing.B) {
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, 16)
	spec := DayTrader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := BuildCache(corpus, spec, 16)
		b.SetBytes(int64(len(img.FileBytes(corpus))))
	}
}

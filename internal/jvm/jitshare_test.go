package jvm

import (
	"bytes"
	"testing"

	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/jitshare"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/simclock"
)

func testArchive() *jitshare.Archive {
	return jitshare.Build("t-code", RuntimeVersion, 8<<20, pg,
		corpus().Stack(classlib.GroupJDK, classlib.GroupDerby), 20)
}

func shareOpts(a *jitshare.Archive) Options {
	o := basicOpts()
	o.JITArchive = a
	return o
}

func warmShared(j *JVM) {
	j.LoadGroups(true, classlib.GroupJDK, classlib.GroupDerby)
	j.JITWarm(20)
	j.JIT().FinishBurst()
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestJITShareLaunchValidatesArchive(t *testing.T) {
	opts := basicOpts()
	opts.JITArchive = jitshare.Build("t-code", "J9-other", 8<<20, pg,
		corpus().Stack(classlib.GroupJDK), 20)
	mustPanic(t, "archive from another compiler level", func() {
		launch(t, bootGuest(t, 1), opts)
	})
}

// TestPICBodiesIdenticalAcrossProcesses is the tentpole property: two JVMs in
// different guests, booted from different seeds, emit byte-identical archive
// pages for every method they both compile — while their profile stubs stay
// per-process.
func TestPICBodiesIdenticalAcrossProcesses(t *testing.T) {
	a := testArchive()
	j1 := launch(t, bootGuest(t, 1), shareOpts(a))
	j2 := launch(t, bootGuest(t, 2), shareOpts(a))
	warmShared(j1)
	warmShared(j2)

	st := j1.JIT().Stats()
	if st.ArchivedMethods == 0 {
		t.Fatal("warm-up archived no methods")
	}
	if st2 := j2.JIT().Stats(); st2.ArchivedMethods != st.ArchivedMethods {
		t.Fatalf("processes archived %d vs %d methods from the same workload",
			st.ArchivedMethods, st2.ArchivedMethods)
	}

	compared := 0
	for _, e := range a.Entries() {
		ms1, ok1 := j1.jit.methods[jitKey{e.Class, e.Method}]
		ms2, ok2 := j2.jit.methods[jitKey{e.Class, e.Method}]
		if !ok1 || !ok2 || !ms1.archived || !ms2.archived {
			continue
		}
		for p := 0; p < e.Pages; p++ {
			b1 := j1.Process().ReadPage(j1.jit.shareVMA.Start + mem.VPN(e.PageOff+p))
			b2 := j2.Process().ReadPage(j2.jit.shareVMA.Start + mem.VPN(e.PageOff+p))
			if !bytes.Equal(b1, b2) {
				t.Fatalf("archive page %d differs across processes (class %v method %d)",
					e.PageOff+p, e.Class, e.Method)
			}
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no archived method compiled in both processes")
	}

	// The profile stubs carry per-process state and must NOT be identical.
	s1 := j1.Process().ReadPage(j1.jit.stubs.segs[0].Start)
	s2 := j2.Process().ReadPage(j2.jit.stubs.segs[0].Start)
	if bytes.Equal(s1, s2) {
		t.Fatal("profile stub pages identical across differently-seeded processes")
	}
	// And they live in their own category so the analysis can split them out.
	found := false
	for _, v := range j1.Process().VMAs() {
		if v.Category == CatJITData {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %q VMA after shared warm-up", CatJITData)
	}
}

// TestReJITInvalidatesCanonicalSlot: the tier-2 upgrade rewrites the
// method's canonical pages with profile-specialized bytes, grows the private
// code cache, and counts the invalidated span — and it happens once.
func TestReJITInvalidatesCanonicalSlot(t *testing.T) {
	a := testArchive()
	j := launch(t, bootGuest(t, 1), shareOpts(a))
	warmShared(j)

	var ms *methodState
	for _, m := range j.jit.methodList {
		if m.archived && m.tier == 1 {
			ms = m
			break
		}
	}
	if ms == nil {
		t.Fatal("no archived tier-1 method after warm-up")
	}
	vpn := j.jit.shareVMA.Start + mem.VPN(ms.entry.PageOff)
	before := append([]byte(nil), j.Process().ReadPage(vpn)...)
	st0 := j.JIT().Stats()
	codeBytes0 := st0.CodeBytes

	j.JIT().CompileMethod(ms.class, ms.m) // compiled already: the tier-2 upgrade

	st1 := j.JIT().Stats()
	if bytes.Equal(before, j.Process().ReadPage(vpn)) {
		t.Fatal("re-JIT left the canonical page untouched")
	}
	if st1.ReJITs != st0.ReJITs+1 {
		t.Fatalf("ReJITs %d, want %d", st1.ReJITs, st0.ReJITs+1)
	}
	if got := st1.CanonicalPagesInvalidated - st0.CanonicalPagesInvalidated; got != ms.entry.Pages {
		t.Fatalf("invalidated %d pages, slot spans %d", got, ms.entry.Pages)
	}
	if st1.CodeBytes <= codeBytes0 {
		t.Fatal("tier-2 body did not grow the private code cache")
	}

	// The upgrade is terminal: compiling the method again is a no-op.
	j.JIT().CompileMethod(ms.class, ms.m)
	if st2 := j.JIT().Stats(); st2.ReJITs != st1.ReJITs ||
		st2.CanonicalPagesInvalidated != st1.CanonicalPagesInvalidated {
		t.Fatalf("tier-2 method upgraded again: %+v vs %+v", st2, st1)
	}
}

// TestScratchPoolBoundedAndRecycled: the compiler work area never exceeds
// its configured cap, FinishBurst keeps the recycled pages resident, and the
// recycled segments are reused instead of growing the pool.
func TestScratchPoolBoundedAndRecycled(t *testing.T) {
	k := bootGuest(t, 1)
	sizes := DefaultSizes(scale)
	sizes.JITScratchBytes = 128 << 10
	j := Launch(k, "java-was", corpus(), basicOpts(), sizes)
	classes := corpus().Stack(classlib.GroupJDK)
	if len(classes) > 40 {
		classes = classes[:40]
	}
	for _, cl := range classes {
		j.JIT().CompileMethod(cl.Seed, 0)
		if got := j.jit.scratch.allocated; got > sizes.JITScratchBytes {
			t.Fatalf("scratch pool at %d bytes, cap %d", got, sizes.JITScratchBytes)
		}
	}
	if st := j.JIT().Stats(); st.ScratchPeak > sizes.JITScratchBytes {
		t.Fatalf("scratch peak %d exceeds cap %d", st.ScratchPeak, sizes.JITScratchBytes)
	}

	resident := j.Process().ResidentPages()
	segs := j.jit.scratch.segCount
	j.JIT().FinishBurst()
	if got := j.Process().ResidentPages(); got != resident {
		t.Fatalf("FinishBurst changed residency %d -> %d; recycling must not release pages",
			resident, got)
	}
	for _, cl := range classes {
		j.JIT().CompileMethod(cl.Seed, 1)
	}
	if got := j.jit.scratch.segCount; got != segs {
		t.Fatalf("scratch pool grew from %d to %d segments after recycling", segs, got)
	}
}

// TestTouchJITCodeWrapsGrownArena: execution sampling triggers re-JITs, the
// tier-2 bodies grow the code arena, and the touch cursor keeps cycling over
// archive + grown segments without faulting past a populated prefix.
func TestTouchJITCodeWrapsGrownArena(t *testing.T) {
	a := testArchive()
	j := launch(t, bootGuest(t, 1), shareOpts(a))
	warmShared(j)
	segs0 := j.jit.code.segCount

	for step := 0; step < 200 && j.JIT().Stats().ReJITs == 0; step++ {
		j.TouchJITCode(step, 1000)
	}
	if j.JIT().Stats().ReJITs == 0 {
		t.Fatal("execution sampling never triggered a re-JIT")
	}
	if j.jit.code.segCount < segs0 {
		t.Fatalf("code arena shrank: %d -> %d segments", segs0, j.jit.code.segCount)
	}

	regions := j.jit.appendTouchRanges(nil)
	total := 0
	for _, r := range regions {
		total += r.pages
	}
	j.TouchJITCode(999, 2*total) // two full wraps over the grown rotation
	for _, r := range regions {
		for p := 0; p < r.pages; p++ {
			if _, ok := j.Process().PageTable().Lookup(r.v.Start + mem.VPN(p)); !ok {
				t.Fatalf("page %d of %s not resident after a full touch cycle", p, r.v.Label)
			}
		}
	}
}

// TestReJITCOWBreaksMergedArchivePage is the end-to-end KSM story: two
// guests attach the archive, the scanner merges the canonical pages, then a
// profile-driven recompilation writes one merged slot — the write must
// COW-break the stable frame (counted by the scanner) and leave the host's
// frame accounting clean.
func TestReJITCOWBreaksMergedArchivePage(t *testing.T) {
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "t", RAMBytes: 256 << 20}, clock)
	a := testArchive()
	var jvms []*JVM
	for i := 0; i < 2; i++ {
		vm := host.NewVM(hypervisor.VMConfig{
			Name: "vm", GuestMemBytes: 64 << 20, Seed: mem.Seed(i + 1),
		})
		k := guestos.Boot(vm, guestos.KernelConfig{Version: "2.6.18", TextBytes: 1 << 20})
		j := Launch(k, "java-was", corpus(), shareOpts(a), DefaultSizes(scale))
		warmShared(j)
		jvms = append(jvms, j)
	}

	scanner := ksm.New(host, ksm.DefaultConfig())
	scanner.RegisterAll()
	pagesPerPass := 0
	for _, j := range jvms {
		pagesPerPass += j.Process().Kernel().VM().GuestPages()
	}
	scanner.ScanChunk(pagesPerPass*3 + 1)

	var areas []jitshare.Area
	for _, j := range jvms {
		area, ok := j.JIT().ShareArea()
		if !ok {
			t.Fatal("shared JVM reports no archive area")
		}
		areas = append(areas, area)
	}
	census := jitshare.Census(host, areas)
	if census.Merged == 0 {
		t.Fatalf("no archive page merged after 3 passes: %+v", census)
	}

	// Find an archived tier-1 method in JVM 1 whose first canonical page the
	// scanner actually merged.
	j := jvms[0]
	vm := j.Process().Kernel().VM()
	var ms *methodState
	for _, m := range j.jit.methodList {
		if !m.archived || m.tier != 1 {
			continue
		}
		pte, ok := j.Process().PageTable().Lookup(j.jit.shareVMA.Start + mem.VPN(m.entry.PageOff))
		if !ok || pte.Swapped {
			continue
		}
		f, ok := vm.ResolveResident(vm.GPFNToHostVPN(uint64(pte.Frame)))
		if ok && host.Phys().IsKSM(f) {
			ms = m
			break
		}
	}
	if ms == nil {
		t.Fatal("no merged archived method to recompile")
	}

	breaks0 := scanner.Stats().COWBreaks
	j.JIT().CompileMethod(ms.class, ms.m) // compiled already: the tier-2 upgrade
	if got := scanner.Stats().COWBreaks; got <= breaks0 {
		t.Fatalf("re-JIT write on a merged page recorded no COW break (%d -> %d)", breaks0, got)
	}
	scanner.ScanChunk(pagesPerPass + 1) // let the scanner prune the dead slot
	if err := host.CheckLeaks(scanner.StableFrames()); err != nil {
		t.Fatalf("frame accounting after re-JIT COW break: %v", err)
	}
}

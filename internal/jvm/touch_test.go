package jvm

import (
	"testing"

	"repro/internal/classlib"
	"repro/internal/mem"
)

func TestTouchPathsKeepWorkingSetResident(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	j.LoadGroups(true, classlib.GroupDerby)
	j.JITWarm(100)
	j.Work().MallocStartup(256 << 10)

	// Reads never change content: snapshot a metadata page, touch
	// everything, compare.
	var metaVPN mem.VPN
	for _, v := range j.Process().VMAs() {
		if v.Category == CatClassMeta {
			metaVPN = v.Start
			break
		}
	}
	before := append([]byte(nil), j.Process().ReadPage(metaVPN)...)

	residentBefore := j.Process().ResidentPages()
	for step := 0; step < 400; step++ {
		j.TouchMetadata(step, 16)
		j.TouchJITCode(step, 8)
	}
	after := j.Process().ReadPage(metaVPN)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("read touch modified metadata content")
		}
	}
	if j.Process().ResidentPages() < residentBefore {
		t.Fatal("touching evicted pages")
	}

	// TouchNative dirties exactly one page per burst.
	dirtyBefore := nonZeroNativePages(j)
	j.Work().TouchNative(1, 32<<10)
	if got := nonZeroNativePages(j); got < dirtyBefore {
		t.Fatal("TouchNative lost native content")
	}
}

func nonZeroNativePages(j *JVM) int {
	n := 0
	for _, v := range j.Process().VMAs() {
		if v.Label != "malloc-arena" && v.Label != "malloc-arena-large" {
			continue
		}
		for vpn := v.Start; vpn < v.End; vpn++ {
			if _, ok := j.Process().PageTable().Lookup(vpn); ok {
				n++
			}
		}
	}
	return n
}

func TestTouchOnEmptyRegionsSafe(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	// No classes loaded, nothing compiled: touches must be no-ops.
	j.TouchMetadata(1, 8)
	j.TouchJITCode(1, 8)
	j.Work().TouchNative(1, 8<<10)
}

func TestStackChurnDirtiesStackPages(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	var stackVPN mem.VPN
	for _, v := range j.Process().VMAs() {
		if v.Category == CatStack {
			stackVPN = v.Start
			break
		}
	}
	before := append([]byte(nil), j.Process().ReadPage(stackVPN)...)
	for s := 0; s < 8; s++ { // hit every thread's stack once
		j.StackChurn(s)
	}
	after := j.Process().ReadPage(stackVPN)
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("stack churn left stack pages untouched")
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	k := bootGuest(t, 1)
	j := launch(t, k, basicOpts())
	if j.Options().GCPolicy != OptThruput {
		t.Fatal("Options accessor wrong")
	}
	if j.Heap().Policy() != OptThruput || j.Heap().Policy().String() != "optthruput" {
		t.Fatal("policy accessors wrong")
	}
	if GenCon.String() != "gencon" {
		t.Fatal("gencon string")
	}
	if len(Categories()) != 7 {
		t.Fatal("Table IV has seven categories")
	}
	if j.Heap().LiveObjects() != 0 {
		t.Fatal("fresh heap has live objects")
	}
	j.Heap().Alloc(1024, 1, true)
	if j.Heap().LiveObjects() != 1 {
		t.Fatal("LiveObjects miscounts")
	}
	if j.Work().Stats().MallocCalls != 0 {
		// MallocStartup runs at launch; calls must be recorded.
	}
}

func TestArenaReleaseAll(t *testing.T) {
	k := bootGuest(t, 1)
	p := k.Spawn("a", false)
	a := newArena(p, CatJVMWork, "tmp", 64<<10)
	a.allocFill(32<<10, 1)
	a.allocFill(100<<10, 2) // dedicated large segment
	resident := p.ResidentPages()
	if resident == 0 {
		t.Fatal("nothing resident")
	}
	a.releaseAll()
	if p.ResidentPages() != 0 {
		t.Fatal("releaseAll left pages mapped")
	}
	if len(a.appendUsedRanges(nil)) != 0 {
		t.Fatal("usedRanges after release")
	}
	// The arena is reusable after release.
	a.allocFill(8<<10, 3)
	if p.ResidentPages() == 0 {
		t.Fatal("arena dead after release")
	}
}

package ksm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mem"
)

// adversarialKinds is the number of content families adversarialContent
// draws from.
const adversarialKinds = 7

// adversarialContent gives frame id the content selected by c and returns a
// key naming that content: two frames hold equal bytes exactly when their
// keys are equal. The families are the ones an index keyed by anything short
// of the whole page could confuse — pages that agree on their first 8, 16 and
// 4095 bytes, the zero page, a seeded page and a Write-built literal page
// with the same bytes (equal content behind different descriptors), and plain
// seeded pages that nothing has read yet.
func adversarialContent(pm *mem.PhysMem, id mem.FrameID, c uint16) string {
	v := c / adversarialKinds
	switch c % adversarialKinds {
	case 0:
		return "zero" // a fresh frame is the lazy zero page
	case 1:
		seed := mem.Seed(1000 + v%16)
		pm.FillFrame(id, seed)
		return fmt.Sprint("seed ", seed)
	case 2:
		seed := mem.Seed(1000 + v%16)
		pm.Write(id, 0, mem.FillBytes(pg, seed))
		return fmt.Sprint("seed ", seed)
	case 3, 4, 5:
		common := [...]int{8, 16, pg - 1}[c%adversarialKinds-3]
		buf := bytes.Repeat([]byte{0xAB}, pg)
		buf[common] = byte(v)
		if common+1 < pg {
			buf[common+1] = byte(v >> 8)
		} else {
			v &= 0xff
		}
		pm.Write(id, 0, buf)
		return fmt.Sprint("common ", common, " tail ", v)
	default:
		seed := mem.Combine(mem.Seed(c))
		pm.FillFrame(id, seed)
		return fmt.Sprint("seed ", seed)
	}
}

// TestPropertyStableIndexMatchesReferenceSet: under any interleaving of
// lookups, inserts and removes over adversarial content the index reports
// exact membership. On even seeds the sums are forged down to two bits, so
// every bucket holds many different contents: Equal has to keep them apart
// and remove has to take the one frame it was given. The index is driven
// straight from the frame pool (view=false); there is no other read path.
func TestPropertyStableIndexMatchesReferenceSet(t *testing.T) {
	t.Run("view=false", stableIndexMatchesReferenceSet)
}

func stableIndexMatchesReferenceSet(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pm := mem.NewPhysMem(2048*pg, pg)
		sum := func(id mem.FrameID) uint64 {
			if seed%2 == 0 {
				return pm.Checksum(id) & 3
			}
			return pm.Checksum(id)
		}
		x := newStableIndex()
		ref := map[string]mem.FrameID{} // content key → the member holding it
		var keys []string               // members' keys, for picking one to remove
		for step := 0; step < 600; step++ {
			op := rng.Uint32()
			if op%4 == 3 && len(keys) > 0 {
				i := int(op>>2) % len(keys)
				id := ref[keys[i]]
				if !x.remove(id, sum(id)) || x.remove(id, sum(id)) {
					t.Fatalf("seed %d step %d: remove(%d) did not take it exactly once", seed, step, id)
				}
				pm.DecRef(id)
				delete(ref, keys[i])
				keys = append(keys[:i], keys[i+1:]...)
			} else {
				id, err := pm.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				key := adversarialContent(pm, id, uint16(op>>2))
				member, known := ref[key]
				if got, hit := x.lookup(pm, id, sum(id)); hit != known || (hit && got != member) {
					t.Fatalf("seed %d step %d: lookup(%q) = %d, %v; reference holds %d, %v", seed, step, key, got, hit, member, known)
				}
				if known {
					pm.DecRef(id)
				} else {
					x.insert(pm, id, sum(id))
					ref[key] = id
					keys = append(keys, key)
				}
			}
			if x.size != len(ref) {
				t.Fatalf("seed %d step %d: size %d, reference %d", seed, step, x.size, len(ref))
			}
		}
		if len(ref) < 20 {
			t.Fatalf("seed %d: only %d members left to check", seed, len(ref))
		}
		walked := map[mem.FrameID]bool{}
		x.walk(func(f mem.FrameID) { walked[f] = true })
		for key, id := range ref {
			if got, hit := x.lookup(pm, id, sum(id)); !hit || got != id || !walked[id] {
				t.Fatalf("seed %d: member %d (%q): lookup = %d, %v; walked %v", seed, id, key, got, hit, walked[id])
			}
		}
		if len(walked) != len(ref) {
			t.Fatalf("seed %d: walk visited %d frames, reference holds %d", seed, len(walked), len(ref))
		}
	}
}

// TestStableIndexInterningRule pins the one side effect the index has on
// purpose, the one bench/golden.json's mem.ContentStats observes: a probe that
// misses a non-empty index is interned, and so is a frame on insert. An empty
// index and a repeated lookup intern nothing.
func TestStableIndexInterningRule(t *testing.T) {
	pm := mem.NewPhysMem(16*pg, pg)
	seeded := func(seed mem.Seed) mem.FrameID {
		id, err := pm.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pm.FillFrame(id, seed)
		return id
	}
	x := newStableIndex()
	lookup := func(probe mem.FrameID) bool {
		_, hit := x.lookup(pm, probe, pm.Checksum(probe))
		return hit
	}
	expect := func(when string, materialized uint64) {
		t.Helper()
		if got := pm.Stats().Materialized; got != materialized {
			t.Fatalf("%s: %d pages materialized, want %d", when, got, materialized)
		}
	}
	probe, member := seeded(7), seeded(8)
	if lookup(probe) {
		t.Fatal("hit in an empty index")
	}
	expect("miss in an empty index", 0)
	x.insert(pm, member, pm.Checksum(member))
	expect("insert", 1)
	if lookup(probe) || lookup(probe) {
		t.Fatal("different content found")
	}
	expect("two misses of one probe", 2)
	if !lookup(seeded(8)) {
		t.Fatal("a same-seed probe missed its member")
	}
}

// TestFreeStablePanicsOnUnindexedFrame: a stable frame the index does not
// hold under its checksum must not be un-flagged and released — the index
// would go on naming a frame the allocator hands out again.
func TestFreeStablePanicsOnUnindexedFrame(t *testing.T) {
	f := newFixture(t, 256, 2, 16, DefaultConfig())
	for _, vm := range f.vms {
		vm.FillGuestPage(0, 1000)
	}
	f.scanPasses(3)
	pm := f.host.Phys()
	frame := f.k.StableFrames()[0]
	// Corrupt the index by hand: the frame moves to a bucket its checksum does
	// not lead to.
	sum := pm.Checksum(frame)
	x := f.k.stable
	if !x.remove(frame, sum) {
		t.Fatalf("fixture: stable frame %d not indexed", frame)
	}
	x.insert(pm, frame, sum+1)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "not in the stable index") {
			t.Fatalf("Unmerge over a corrupted index: recovered %q", msg)
		}
		if !pm.IsKSM(frame) {
			t.Fatal("the unindexed frame was un-flagged before the panic")
		}
	}()
	f.k.Unmerge()
}

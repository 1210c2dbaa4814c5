package ksm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// tableModel is the naive reference for a sumTable: each sum's stable
// frames and unstable entries as plain slices, in chain order.
type tableModel struct {
	stable   map[uint64][]mem.FrameID
	unstable map[uint64][]pageKey
}

// check holds every claimed slot of x to the model, chain for chain and in
// order, and the table to its own shape: each slot is where a probe for its
// sum lands, no sum is claimed twice, used counts the claimed slots and the
// model has no sum the table lost.
func (m *tableModel) check(x *sumTable) error {
	claimed, stableN, unstableN := 0, 0, 0
	seen := map[uint64]bool{}
	for i := range x.slots {
		s := &x.slots[i]
		if s.gen == 0 {
			continue
		}
		claimed++
		if seen[s.sum] {
			return fmt.Errorf("sum %#x claimed twice", s.sum)
		}
		seen[s.sum] = true
		if j, ok := x.find(s.sum); !ok || j != i {
			return fmt.Errorf("sum %#x in slot %d, its probe finds %d, %v", s.sum, i, j, ok)
		}
		var frames []mem.FrameID
		for n := s.stable; n != nilNode; n = x.stable[n].next {
			frames = append(frames, x.stable[n].frame)
		}
		var keys []pageKey
		for n := x.unstableHead(i); n != nilNode; n = x.node(n).next {
			keys = append(keys, x.node(n).key)
		}
		if !slices.Equal(frames, m.stable[s.sum]) || !slices.Equal(keys, m.unstable[s.sum]) {
			return fmt.Errorf("sum %#x chains stable %v unstable %v, model %v and %v",
				s.sum, frames, keys, m.stable[s.sum], m.unstable[s.sum])
		}
		stableN += len(frames)
		unstableN += len(keys)
	}
	for sum, frames := range m.stable {
		if len(frames) > 0 && !seen[sum] {
			return fmt.Errorf("sum %#x lost its stable frames %v", sum, frames)
		}
	}
	for sum, keys := range m.unstable {
		if len(keys) > 0 && !seen[sum] {
			return fmt.Errorf("sum %#x lost its unstable entries %v", sum, keys)
		}
	}
	if claimed != x.used || x.used >= len(x.slots) || stableN != x.stableN || unstableN != x.unstableN {
		return fmt.Errorf("%d slots claimed of %d, used %d; %d stable %d unstable chained, counted %d and %d",
			claimed, len(x.slots), x.used, stableN, unstableN, x.stableN, x.unstableN)
	}
	return nil
}

// TestPropertyStableIndexMatchesReferenceSet drives one table through random
// interleavings of stable lookup, insert and remove over adversarial content,
// unstable record, unlink, filter and repack, and dropUnstable, against the
// naive model after every step. Lookups must report exact membership: with
// sums forged down to two or six bits every chain holds many different
// contents, Equal has to keep them apart and removeStable has to take the one
// frame it was given. Starting from four slots, and on some seeds a
// generation about to wrap, every mechanism of the table has to fire:
// displaced slots, growth, dead-slot reclaim, a stale slot revived by a new
// generation and the generation's wrap.
func TestPropertyStableIndexMatchesReferenceSet(t *testing.T) {
	t.Run("model", stableIndexMatchesReferenceSet)
}

func stableIndexMatchesReferenceSet(t *testing.T) {
	var displaced, grown, reclaimed, revived, wrapped int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pm := mem.NewPhysMem(2048*pg, pg)
		bits := [...]uint64{3, 63, ^uint64(0)}[seed%3]
		sum := func(id mem.FrameID) uint64 { return pm.Checksum(id) & bits }
		x := makeSumTable(4)
		if seed%4 == 0 {
			x.gen = math.MaxUint32 - 2
		}
		m := tableModel{stable: map[uint64][]mem.FrameID{}, unstable: map[uint64][]pageKey{}}
		ref := map[string]mem.FrameID{} // content key → the member holding it
		var keys []string               // members' keys, for picking one to remove
		// Unstable entries are filed under a few dozen sums, so chains grow.
		var sums [40]uint64
		for i := range sums {
			sums[i] = rng.Uint64() & bits
		}
		unstableSums := func() []uint64 {
			var out []uint64
			for s, ks := range m.unstable {
				if len(ks) > 0 {
					out = append(out, s)
				}
			}
			slices.Sort(out)
			return out
		}
		for step := 0; step < 1500; step++ {
			size, used := len(x.slots), x.used
			op := rng.Uint32()
			switch r := op % 16; {
			case r < 2 && len(keys) > 0:
				i := int(op>>4) % len(keys)
				id := ref[keys[i]]
				if !x.removeStable(id, sum(id)) || x.removeStable(id, sum(id)) {
					t.Fatalf("seed %d step %d: removeStable(%d) did not take it exactly once", seed, step, id)
				}
				m.stable[sum(id)] = slices.DeleteFunc(m.stable[sum(id)], func(f mem.FrameID) bool { return f == id })
				pm.DecRef(id)
				delete(ref, keys[i])
				keys = append(keys[:i], keys[i+1:]...)
			case r < 7:
				id, err := pm.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				key := adversarialContent(pm, id, uint16(op>>4))
				member, known := ref[key]
				i := x.claim(sum(id))
				if got, hit := x.lookupStable(pm, i, id); hit != known || (hit && got != member) {
					t.Fatalf("seed %d step %d: lookup(%q) = %d, %v; reference holds %d, %v", seed, step, key, got, hit, member, known)
				}
				if known {
					pm.DecRef(id)
				} else {
					x.insertStable(pm, i, id)
					m.stable[sum(id)] = append(m.stable[sum(id)], id)
					ref[key] = id
					keys = append(keys, key)
				}
			case r < 12:
				s := sums[int(op>>4)%len(sums)]
				if i, ok := x.find(s); ok && x.slots[i].gen != x.gen {
					revived++
				}
				key := pageKey{vpn: mem.VPN(op >> 20)}
				x.record(x.claim(s), key)
				m.unstable[s] = append(m.unstable[s], key)
			case r < 14:
				live := unstableSums()
				if len(live) == 0 {
					continue
				}
				s := live[int(op>>4)%len(live)]
				at := int(op>>12) % len(m.unstable[s])
				i, _ := x.find(s)
				prev, n := nilNode, x.unstableHead(i)
				for k := 0; k < at; k++ {
					prev, n = n, x.node(n).next
				}
				x.unlinkUnstable(i, prev, n)
				m.unstable[s] = slices.Delete(m.unstable[s], at, at+1)
			case r == 14:
				odd := func(key pageKey, s uint64) bool { return (uint64(key.vpn)+s)%3 == uint64(op>>4)%3 }
				x.filterUnstable(odd)
				for s, ks := range m.unstable {
					m.unstable[s] = slices.DeleteFunc(ks, func(key pageKey) bool { return odd(key, s) })
				}
				if op>>8%2 == 0 {
					x.repackUnstable()
					if x.unstableLen != x.unstableN || x.unstableStorage() > x.unstableN+unstableChunk {
						t.Fatalf("seed %d step %d: repacked store holds %d nodes in %d for %d entries",
							seed, step, x.unstableLen, x.unstableStorage(), x.unstableN)
					}
				}
			default:
				gen := x.gen
				x.dropUnstable()
				if x.gen < gen {
					wrapped++
				}
				clear(m.unstable)
			}
			if err := m.check(&x); err != nil {
				t.Fatalf("seed %d step %d (op %d): %v", seed, step, op%16, err)
			}
			if len(x.slots) > size {
				grown++
			} else if x.used < used {
				reclaimed++
			}
		}
		for i := range x.slots {
			if s := &x.slots[i]; s.gen != 0 && uint64(i) != s.sum&x.mask {
				displaced++
			}
		}
		if len(ref) < 20 {
			t.Fatalf("seed %d: only %d members left to check", seed, len(ref))
		}
		walked := map[mem.FrameID]bool{}
		x.walkStable(func(f mem.FrameID) { walked[f] = true })
		for key, id := range ref {
			i, ok := x.find(sum(id))
			if !ok || !walked[id] {
				t.Fatalf("seed %d: member %d (%q) unreachable; walked %v", seed, id, key, walked[id])
			}
			if got, hit := x.lookupStable(pm, i, id); !hit || got != id {
				t.Fatalf("seed %d: member %d (%q): lookup = %d, %v", seed, id, key, got, hit)
			}
		}
		if len(walked) != len(ref) {
			t.Fatalf("seed %d: walk visited %d frames, reference holds %d", seed, len(walked), len(ref))
		}
	}
	if displaced == 0 || grown == 0 || reclaimed == 0 || revived == 0 || wrapped == 0 {
		t.Fatalf("a mechanism never fired: %d displaced slots, %d growths, %d reclaims, %d revivals, %d wraps",
			displaced, grown, reclaimed, revived, wrapped)
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
	x := makeSumTable(4)
	lookup := func(probe mem.FrameID) bool {
		_, hit := x.lookupStable(pm, x.claim(pm.Checksum(probe)), probe)
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
	x.insertStable(pm, x.claim(pm.Checksum(member)), member)
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
	// Corrupt the index by hand: the frame moves to a slot its checksum does
	// not lead to.
	sum := pm.Checksum(frame)
	x := &f.k.index
	if !x.removeStable(frame, sum) {
		t.Fatalf("fixture: stable frame %d not indexed", frame)
	}
	x.insertStable(pm, x.claim(sum+1), frame)
	if err := f.k.Verify(); err == nil || !strings.Contains(err.Error(), "not in its checksum's slot") {
		t.Fatalf("Verify over the corrupted index: %v", err)
	}
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

// plantUnstable files key in the unstable index under sum, whatever the page
// holds: the stale entries a test needs.
func (k *KSM) plantUnstable(key pageKey, sum uint64) {
	k.index.record(k.index.claim(sum), key)
}

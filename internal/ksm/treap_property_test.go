package ksm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// adversarialKinds is the number of content families adversarialContent
// draws from.
const adversarialKinds = 7

// adversarialContent gives frame id the content selected by c and returns a
// key naming that content: two frames hold equal bytes exactly when their
// keys are equal. The families are chosen against the prefix descent — pages
// that agree on their first 8, 16 and 4095 bytes (prefix ties at every
// level), the zero page, a seeded page and a Write-built literal page with
// the same bytes (equal content behind different descriptors), and plain
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

// Property: under any interleaving of inserts and removes, the stable treap
// stays sorted by content, reports exact membership, and matches a
// reference set — over unique seeded pages and over adversarial content.
func TestPropertyTreapMatchesReferenceSet(t *testing.T) {
	unique := func(pm *mem.PhysMem, id mem.FrameID, op uint16, n int) string {
		seed := mem.Combine(mem.Seed(op), mem.Seed(n))
		pm.FillFrame(id, seed)
		return fmt.Sprint("seed ", seed)
	}
	adversarial := func(pm *mem.PhysMem, id mem.FrameID, op uint16, _ int) string {
		return adversarialContent(pm, id, op/3)
	}
	for name, content := range map[string]func(*mem.PhysMem, mem.FrameID, uint16, int) string{
		"unique-seeded": unique, "adversarial": adversarial,
	} {
		f := func(ops []uint16) bool {
			pm := mem.NewPhysMem(512*pg, pg)
			tr := newStableTreap(0)
			ref := map[string]mem.FrameID{} // content key → the member holding it
			var frames []mem.FrameID
			var keys []string
			for _, op := range ops {
				if op%3 != 0 || len(frames) == 0 {
					id, err := pm.Alloc()
					if err != nil {
						break
					}
					key := content(pm, id, op, len(frames))
					member, known := ref[key]
					if got, dup := tr.lookup(pm, id); dup != known || (dup && got != member) {
						return false
					}
					if known {
						pm.DecRef(id)
						continue
					}
					tr.insert(pm, id)
					ref[key] = id
					frames = append(frames, id)
					keys = append(keys, key)
				} else {
					// Remove a pseudo-random member.
					idx := int(op) % len(frames)
					if member, ok := ref[keys[idx]]; ok && member == frames[idx] {
						if !tr.remove(pm, member) {
							return false
						}
						delete(ref, keys[idx])
					}
				}
			}
			// Size and membership agree with the reference.
			walk := tr.frames()
			if len(walk) != len(ref) || tr.size != len(ref) {
				return false
			}
			members := map[mem.FrameID]bool{}
			for _, id := range ref {
				members[id] = true
			}
			for _, id := range walk {
				if !members[id] {
					return false
				}
			}
			// Walk order is strict content order.
			for i := 1; i < len(walk); i++ {
				if pm.Compare(walk[i-1], walk[i]) >= 0 {
					return false
				}
			}
			// Lookup finds exactly the members.
			for _, id := range ref {
				if got, ok := tr.lookup(pm, id); !ok || got != id {
					return false
				}
			}
			return true
		}
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUnmaterializedSeededRoot: a frame inserted into an empty tree is never
// compared, so the root can hold a seeded page nobody has read. A probe with
// the same seed must hit it without materializing either, a probe with other
// content must materialize both (the root step is a real comparison), and
// only then may the root carry a prefix.
func TestUnmaterializedSeededRoot(t *testing.T) {
	pm := mem.NewPhysMem(16*pg, pg)
	alloc := func(seed mem.Seed) mem.FrameID {
		id, err := pm.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pm.FillFrame(id, seed)
		return id
	}
	tr := newStableTreap(0)
	root := alloc(7)
	tr.insert(pm, root)
	if tr.root.keyed {
		t.Fatal("root has a prefix before any byte comparison")
	}
	if got, ok := tr.lookup(pm, alloc(7)); !ok || got != root {
		t.Fatalf("same-seed probe missed the root: %v %v", got, ok)
	}
	if m := pm.Stats().Materialized; m != 0 || tr.root.keyed {
		t.Fatalf("descriptor-equal hit materialized %d pages (keyed=%v)", m, tr.root.keyed)
	}
	if _, ok := tr.lookup(pm, alloc(8)); ok {
		t.Fatal("different content found")
	}
	if m := pm.Stats().Materialized; m != 2 || !tr.root.keyed {
		t.Fatalf("miss at a seeded root materialized %d pages (keyed=%v), want probe and root", m, tr.root.keyed)
	}
	if want, _ := pm.Prefix(root); tr.root.key != want {
		t.Fatalf("root prefix %#x, want %#x", tr.root.key, want)
	}
}

// frames returns all stable frames in key order.
func (t *stableTreap) frames() []mem.FrameID {
	out := make([]mem.FrameID, 0, t.size)
	t.walk(func(f mem.FrameID) { out = append(out, f) })
	return out
}

// plainOrder hides the content prefix, so every step of a descent is the
// byte comparison: the tree as it was before nodes cached prefixes, kept as
// the reference the prefixed descent is held to.
type plainOrder struct{ contentReader }

func (plainOrder) Prefix(mem.FrameID) (uint64, bool) { return 0, false }

// treapRig is one pool and one tree driven by a shared op sequence. With a
// view, lookups and inserts go through it, as a shard worker's do, and commit
// repays its regenerated reads, as processBatch does.
type treapRig struct {
	pm      *mem.PhysMem
	view    *mem.ROView
	ord     contentReader // lookups and inserts
	serial  contentReader // removals: always the pool, as in the scanner
	tr      *stableTreap
	members []mem.FrameID
}

func newTreapRig(sharded, plain bool) *treapRig {
	r := &treapRig{pm: mem.NewPhysMem(2048*pg, pg), tr: newStableTreap(0)}
	r.ord, r.serial = r.pm, r.pm
	if sharded {
		r.view = r.pm.NewROView()
		r.ord = r.view
	}
	if plain {
		r.ord, r.serial = plainOrder{r.ord}, plainOrder{r.serial}
	}
	return r
}

// treapObservation is everything the trace-equivalence property compares
// after an operation.
type treapObservation struct {
	result       string
	frames       []mem.FrameID
	fills        []mem.FrameID // frames the view queued for materialization, sorted
	materialized uint64
	content      mem.ContentStats
}

// commit materializes the view's regenerated reads and starts a new phase.
func (r *treapRig) commit() []mem.FrameID {
	if r.view == nil {
		return nil
	}
	fills := append([]mem.FrameID(nil), r.view.Fills()...)
	for _, f := range fills {
		r.pm.Materialize(f)
	}
	r.view.ResetFills()
	sort.Slice(fills, func(i, j int) bool { return fills[i] < fills[j] })
	return fills
}

func (r *treapRig) apply(op uint32) treapObservation {
	var o treapObservation
	switch {
	case op%4 == 3 && len(r.members) > 0:
		// Removal is serial-only in the scanner (prune, unmerge) and runs
		// between batches.
		o.fills = r.commit()
		i := int(op>>2) % len(r.members)
		id := r.members[i]
		o.result = fmt.Sprint("remove ", id, r.tr.remove(r.serial, id))
		r.pm.DecRef(id)
		r.members = append(r.members[:i], r.members[i+1:]...)
	case op%4 == 2 && len(r.members) > 0:
		id := r.members[int(op>>2)%len(r.members)]
		got, ok := r.tr.lookup(r.ord, id)
		o.result = fmt.Sprint("lookup ", id, got, ok)
	default:
		id, err := r.pm.Alloc()
		if err != nil {
			o.result = "oom"
			break
		}
		adversarialContent(r.pm, id, uint16(op>>2))
		got, dup := r.tr.lookup(r.ord, id)
		o.result = fmt.Sprint("insert ", id, got, dup)
		if dup {
			o.fills = r.commit() // the probe may be on the fill list: repay before freeing it
			r.pm.DecRef(id)
		} else {
			r.tr.insert(r.ord, id)
			r.members = append(r.members, id)
		}
	}
	if op%5 == 0 {
		o.fills = append(o.fills, r.commit()...)
	}
	o.frames = r.tr.frames()
	o.materialized = r.pm.Stats().Materialized
	o.content = r.pm.ContentStats()
	return o
}

func keyedNodes(n *treapNode) int {
	if n == nil {
		return 0
	}
	k := keyedNodes(n.left) + keyedNodes(n.right)
	if n.keyed {
		k++
	}
	return k
}

// TestPropertyPrefixDescentTraceEquivalent: the same random
// insert/lookup/remove sequence against the prefixed descent and against the
// plain byte-compare descent yields the same results, the same tree order and
// — after every single operation — the same materialization counters, for
// the serial comparator and for the sharded path's read-only view (where the
// frames queued for materialization must agree too). This is the property the
// golden digests rest on: caching prefixes skips comparisons, never a side
// effect.
func TestPropertyPrefixDescentTraceEquivalent(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("view=%v", sharded), func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prefixed, plain := newTreapRig(sharded, false), newTreapRig(sharded, true)
				for step := 0; step < 600; step++ {
					op := rng.Uint32()
					got, want := prefixed.apply(op), plain.apply(op)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d (op %#x) diverged:\nprefixed %+v\nplain    %+v", seed, step, op, got, want)
					}
				}
				if keyedNodes(plain.tr.root) != 0 {
					t.Fatalf("seed %d: the reference tree used prefixes", seed)
				}
				if prefixed.tr.size < 20 || keyedNodes(prefixed.tr.root) < prefixed.tr.size/2 {
					t.Fatalf("seed %d: %d of %d nodes carry a prefix: the property compared plain with plain",
						seed, keyedNodes(prefixed.tr.root), prefixed.tr.size)
				}
			}
		})
	}
}

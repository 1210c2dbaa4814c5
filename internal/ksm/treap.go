package ksm

import "repro/internal/mem"

// stableTreap is an ordered tree over KSM stable frames keyed by
// lexicographic page content. Stable frames are write-protected, so — unlike
// the unstable index — their keys can never drift and the tree stays
// consistent. A treap keeps the structure balanced in expectation with
// deterministic pseudo-random priorities, so runs remain reproducible.
//
// Every node caches the first eight bytes of its frame as a big-endian
// integer once they can be read without side effects. (prefix, bytes) order is
// byte-lexicographic order, so a descent that compares prefixes and falls
// back to bytes on a tie takes the same path, and builds the same tree, as one
// that compares bytes at every node — without touching a cold page per level.
type stableTreap struct {
	root  *treapNode
	size  int
	prSrc mem.Seed
}

type treapNode struct {
	frame       mem.FrameID
	prio        uint64
	key         uint64 // content prefix; valid when keyed
	keyed       bool
	left, right *treapNode
}

// descent orders one probe frame against the nodes on its search path; the
// one comparison routine of lookup, insert and remove.
type descent struct {
	ord   contentReader
	probe mem.FrameID
	key   uint64
	keyed bool
}

// cmp orders the probe against n. Prefixes decide when both are known and
// differ. Otherwise the real comparison runs with all its side effects — a
// seeded probe has no prefix until one has materialized it, so its first
// step (the root) is always real — and both prefixes are captured after it.
func (d *descent) cmp(n *treapNode) int {
	if n.keyed {
		if !d.keyed {
			d.key, d.keyed = d.ord.Prefix(d.probe)
		}
		if d.keyed && d.key != n.key {
			if d.key < n.key {
				return -1
			}
			return 1
		}
	}
	c := d.ord.Compare(d.probe, n.frame)
	if !n.keyed {
		n.key, n.keyed = d.ord.Prefix(n.frame)
	}
	return c
}

// newStableTreap creates a shard's tree. Shard 0 keeps the historical
// priority seed so a single-shard scanner's tree is bit-for-bit the one the
// unsharded scanner built; higher shards salt it so their priority streams
// are independent.
func newStableTreap(shard int) *stableTreap {
	seed := mem.HashString("ksm-stable-treap")
	if shard > 0 {
		seed = mem.Combine(seed, mem.Seed(shard))
	}
	return &stableTreap{prSrc: seed}
}

func (t *stableTreap) nextPrio() uint64 {
	t.prSrc = mem.Mix(t.prSrc)
	return uint64(t.prSrc)
}

// lookup finds a stable frame with content byte-identical to probe.
func (t *stableTreap) lookup(ord contentReader, probe mem.FrameID) (mem.FrameID, bool) {
	d := descent{ord: ord, probe: probe}
	n := t.root
	for n != nil {
		switch c := d.cmp(n); {
		case c == 0:
			return n.frame, true
		case c < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return mem.NilFrame, false
}

// insert adds a stable frame. Content must not already be present; the
// caller looks up first.
func (t *stableTreap) insert(ord contentReader, frame mem.FrameID) {
	d := descent{ord: ord, probe: frame}
	nn := &treapNode{frame: frame, prio: t.nextPrio()}
	t.root = insertAt(t.root, nn, &d)
	nn.key, nn.keyed = d.key, d.keyed
	t.size++
}

func insertAt(n, nn *treapNode, d *descent) *treapNode {
	if n == nil {
		return nn
	}
	if d.cmp(n) < 0 {
		n.left = insertAt(n.left, nn, d)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	} else {
		n.right = insertAt(n.right, nn, d)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	}
	return n
}

// remove deletes the node holding exactly this frame id.
func (t *stableTreap) remove(ord contentReader, frame mem.FrameID) bool {
	d := descent{ord: ord, probe: frame}
	removed := false
	t.root = removeAt(t.root, &d, &removed)
	if removed {
		t.size--
	}
	return removed
}

func removeAt(n *treapNode, d *descent, removed *bool) *treapNode {
	if n == nil {
		return nil
	}
	c := d.cmp(n)
	switch {
	case c == 0 && n.frame == d.probe:
		*removed = true
		return mergeDown(n)
	case c == 0:
		// Identical content in a different frame should not exist in the
		// stable tree, but be defensive: check both subtrees.
		n.left = removeAt(n.left, d, removed)
		if !*removed {
			n.right = removeAt(n.right, d, removed)
		}
	case c < 0:
		n.left = removeAt(n.left, d, removed)
	default:
		n.right = removeAt(n.right, d, removed)
	}
	return n
}

// mergeDown removes the root of a subtree by rotating it to a leaf.
func mergeDown(n *treapNode) *treapNode {
	for {
		switch {
		case n.left == nil && n.right == nil:
			return nil
		case n.left == nil:
			return n.right
		case n.right == nil:
			return n.left
		case n.left.prio > n.right.prio:
			n = rotateRight(n)
			n.right = mergeDown(n.right)
			return n
		default:
			n = rotateLeft(n)
			n.left = mergeDown(n.left)
			return n
		}
	}
}

func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// walk visits every stable frame in key order.
func (t *stableTreap) walk(fn func(frame mem.FrameID)) { t.root.walk(fn) }

func (n *treapNode) walk(fn func(frame mem.FrameID)) {
	if n == nil {
		return
	}
	n.left.walk(fn)
	fn(n.frame)
	n.right.walk(fn)
}

// Package mem models host physical memory at page granularity: a pool of
// page frames with reference counting and real byte contents, page tables
// mapping virtual page numbers to frames, and deterministic content
// generators.
//
// Every page in the simulator is backed by real bytes. Components fill pages
// with bytes derived deterministically from logical identity (a class name,
// a file path, a per-process randomization seed), so that two pages end up
// byte-identical exactly when the simulated system would have produced
// identical pages — content identity is emergent, never asserted. That is
// the property the paper's Transparent Page Sharing analysis rests on.
package mem

import (
	"encoding/binary"
	"math/bits"
)

// Seed is a 64-bit value that deterministically identifies a piece of
// logical content. Seeds are combined with SplitMix64-style mixing so that
// related identities (same class, different process) produce unrelated byte
// streams.
type Seed uint64

// Mix advances a seed through the SplitMix64 finalizer. It is the core
// primitive behind all deterministic content in the simulator.
func Mix(x Seed) Seed {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return Seed(z ^ (z >> 31))
}

// Combine folds any number of seeds into one. Order matters:
// Combine(a, b) != Combine(b, a) in general.
func Combine(seeds ...Seed) Seed {
	var acc Seed = 0x243f6a8885a308d3 // pi, for want of anything better
	for _, s := range seeds {
		acc = Mix(acc ^ s)
	}
	return acc
}

// HashString hashes a string into a Seed using FNV-1a.
func HashString(s string) Seed {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Seed(h)
}

// Seeded content is counter-based: word pair k of Fill(_, seed) is a function
// of Mix(seed) + (k+1)·fillGamma alone, so no word waits on the one before it.
// One 64×64→128 multiply of the counter by itself xor fillKey yields both
// words.
const (
	fillGamma uint64 = 0x9e3779b97f4a7c15
	fillKey   uint64 = 0xd6e8feb86659fd93
)

func fillPair(c uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(c, c^fillKey)
	return lo ^ c, hi ^ lo
}

// Fill writes the byte stream derived from seed into dst, words stored
// little-endian. The contract: the bytes are a function of (seed, len(dst))
// alone, the same at every GOARCH; Fill(n) is the first n bytes of Fill(m) for
// n <= m (objects are written header-then-body at arbitrary sizes);
// ChecksumSeed(seed, n) == ChecksumBytes(FillBytes(n, seed)) for every n; and
// distinct seeds give distinct pages in practice. Callers may rely on equality
// of generated content only, never on its value.
func Fill(dst []byte, seed Seed) {
	c := uint64(Mix(seed))
	for ; len(dst) >= 32; dst = dst[32:] {
		c0 := c + fillGamma
		c = c0 + fillGamma
		a0, b0 := fillPair(c0)
		a1, b1 := fillPair(c)
		binary.LittleEndian.PutUint64(dst, a0)
		binary.LittleEndian.PutUint64(dst[8:], b0)
		binary.LittleEndian.PutUint64(dst[16:], a1)
		binary.LittleEndian.PutUint64(dst[24:], b1)
	}
	if len(dst) >= 16 {
		c += fillGamma
		a, b := fillPair(c)
		binary.LittleEndian.PutUint64(dst, a)
		binary.LittleEndian.PutUint64(dst[8:], b)
		dst = dst[16:]
	}
	a, b := fillPair(c + fillGamma)
	for i := range dst {
		if i == 8 {
			a = b
		}
		dst[i] = byte(a)
		a >>= 8
	}
}

// FillBytes allocates and fills a fresh deterministic buffer.
func FillBytes(n int, seed Seed) []byte {
	b := make([]byte, n)
	Fill(b, seed)
	return b
}

// The page checksum folds little-endian 64-bit words through sumLanes
// independent multiply-rotate lanes — word j goes to lane j % sumLanes — so
// the multiplies pipeline instead of forming one dependent chain. Every step
// is a bijection of the lane given the word and of the word given the lane,
// so changing a single word always changes the sum. Callers may rely on
// equality of sums only, never on their value.
const sumLanes = 4

type sumState [sumLanes]uint64

// sumInit holds the lanes' starting values; they differ so that the same
// word means something different in each lane.
var sumInit = sumState{0x60ea27eeadc0b5d6, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x61c8864e7a143579}

func sumRound(lane, word uint64) uint64 {
	return bits.RotateLeft64(lane^word, 31) * 0x9e3779b185ebca87
}

// finish merges the lanes, mixes in the byte length (so zero-padding the
// tail word is unambiguous) and avalanches through the SplitMix64 finalizer.
func (l *sumState) finish(n int) uint64 {
	h := bits.RotateLeft64(l[0], 1) + bits.RotateLeft64(l[1], 7) +
		bits.RotateLeft64(l[2], 12) + bits.RotateLeft64(l[3], 18)
	return uint64(Mix(Seed(h ^ uint64(n))))
}

// ChecksumBytes computes the checksum of a byte slice, a word at a time. KSM
// uses this as its volatility gate: a page whose checksum changed between
// scan passes is considered too volatile to merge.
func ChecksumBytes(b []byte) uint64 {
	n := len(b)
	// Scalars, not the array: the compiler keeps only those in registers.
	l0, l1, l2, l3 := sumInit[0], sumInit[1], sumInit[2], sumInit[3]
	for ; len(b) >= 8*sumLanes; b = b[8*sumLanes:] {
		l0 = sumRound(l0, binary.LittleEndian.Uint64(b))
		l1 = sumRound(l1, binary.LittleEndian.Uint64(b[8:]))
		l2 = sumRound(l2, binary.LittleEndian.Uint64(b[16:]))
		l3 = sumRound(l3, binary.LittleEndian.Uint64(b[24:]))
	}
	l := sumState{l0, l1, l2, l3}
	for k := 0; len(b) > 0; k++ {
		var w uint64
		if len(b) >= 8 {
			w, b = binary.LittleEndian.Uint64(b), b[8:]
		} else {
			for i, c := range b {
				w |= uint64(c) << (8 * i)
			}
			b = nil
		}
		l[k] = sumRound(l[k], w)
	}
	return l.finish(n)
}

// ChecksumSeed computes ChecksumBytes(FillBytes(n, seed)) without
// materializing the buffer: the generator words are folded straight into
// the lanes. The content store checksums seeded (never-read) pages this way,
// so the volatility gate costs no page-sized memory traffic for them.
func ChecksumSeed(seed Seed, n int) uint64 {
	c := uint64(Mix(seed))
	l0, l1, l2, l3 := sumInit[0], sumInit[1], sumInit[2], sumInit[3]
	i := 0
	for ; i+8*sumLanes <= n; i += 8 * sumLanes {
		c0 := c + fillGamma
		c = c0 + fillGamma
		a0, b0 := fillPair(c0)
		a1, b1 := fillPair(c)
		l0, l1, l2, l3 = sumRound(l0, a0), sumRound(l1, b0), sumRound(l2, a1), sumRound(l3, b1)
	}
	l := sumState{l0, l1, l2, l3}
	var w [sumLanes]uint64
	w[0], w[1] = fillPair(c + fillGamma)
	w[2], w[3] = fillPair(c + fillGamma + fillGamma)
	for k := 0; i < n; k, i = k+1, i+8 {
		if n-i < 8 {
			w[k] &= 1<<(8*(n-i)) - 1
		}
		l[k] = sumRound(l[k], w[k])
	}
	return l.finish(n)
}

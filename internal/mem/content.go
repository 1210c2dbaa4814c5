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

// nextWord advances the xorshift64* state behind Fill and returns the new
// state with the 64-bit word it emits (stored little-endian).
func nextWord(s uint64) (state, word uint64) {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s, s * 0x2545f4914f6cdd1d
}

// fillState is the generator state Fill(_, seed) starts from.
func fillState(seed Seed) uint64 {
	if s := uint64(Mix(seed)); s != 0 {
		return s
	}
	return 0x9e3779b97f4a7c15
}

// Fill writes a deterministic byte stream derived from seed into dst. The
// stream is a xorshift64* generator; the same (seed, len) always produces
// the same bytes, and different seeds produce streams that share no long
// common runs, so accidental page-content collisions do not happen.
func Fill(dst []byte, seed Seed) {
	s := fillState(seed)
	var v uint64
	for ; len(dst) >= 8; dst = dst[8:] {
		s, v = nextWord(s)
		binary.LittleEndian.PutUint64(dst, v)
	}
	if len(dst) > 0 {
		_, v = nextWord(s)
		for i := range dst {
			dst[i] = byte(v)
			v >>= 8
		}
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
	s := fillState(seed)
	l0, l1, l2, l3 := sumInit[0], sumInit[1], sumInit[2], sumInit[3]
	var v uint64
	i := 0
	for ; i+8*sumLanes <= n; i += 8 * sumLanes {
		s, v = nextWord(s)
		l0 = sumRound(l0, v)
		s, v = nextWord(s)
		l1 = sumRound(l1, v)
		s, v = nextWord(s)
		l2 = sumRound(l2, v)
		s, v = nextWord(s)
		l3 = sumRound(l3, v)
	}
	l := sumState{l0, l1, l2, l3}
	for k := 0; i < n; k, i = k+1, i+8 {
		s, v = nextWord(s)
		if n-i < 8 {
			v &= 1<<(8*(n-i)) - 1
		}
		l[k] = sumRound(l[k], v)
	}
	return l.finish(n)
}

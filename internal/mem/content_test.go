package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// checksumSizes is every length up to a few lane widths past 256 — all tail
// shapes: empty, partial word, whole words short of a lane block — plus the
// page size.
func checksumSizes() []int {
	sizes := []int{DefaultPageSize}
	for n := 0; n <= 260; n++ {
		sizes = append(sizes, n)
	}
	return sizes
}

// fillReference is the generator written out a byte at a time: the stream
// every figure's content was derived from, which Fill must keep bit for bit.
func fillReference(dst []byte, seed Seed) {
	s := uint64(Mix(seed))
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	var v uint64
	for i := range dst {
		if i%8 == 0 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v = s * 0x2545f4914f6cdd1d
		}
		dst[i] = byte(v >> (8 * (i % 8)))
	}
}

func TestFillMatchesByteReference(t *testing.T) {
	sizes := []int{DefaultPageSize}
	for n := 0; n <= 65; n++ {
		sizes = append(sizes, n)
	}
	for _, seed := range []Seed{0, 1, 42, HashString("java/lang/Object"), Combine(3, 9), ^Seed(0)} {
		for _, n := range sizes {
			// One guard byte past the end catches a word store overrunning.
			got := make([]byte, n+1)
			got[n] = 0xa5
			Fill(got[:n], seed)
			want := make([]byte, n)
			fillReference(want, seed)
			if !bytes.Equal(got[:n], want) || got[n] != 0xa5 {
				t.Fatalf("seed %#x n=%d: Fill diverged from the byte-at-a-time reference", uint64(seed), n)
			}
		}
	}
}

// TestChecksumSeedMatchesMaterialized pins the streamed seeded checksum to
// the byte-materialized one for every tail shape.
func TestChecksumSeedMatchesMaterialized(t *testing.T) {
	for _, n := range append(checksumSizes(), 4100, 16384) {
		for s := uint64(0); s < 64; s++ {
			seed := Mix(Seed(s * 0x9e37))
			if got, want := ChecksumSeed(seed, n), ChecksumBytes(FillBytes(n, seed)); got != want {
				t.Fatalf("seed %#x n=%d: ChecksumSeed %#x, materialized %#x", uint64(seed), n, got, want)
			}
		}
	}
}

// TestChecksumSensitivity: the volatility gate and the content table are
// only as good as the sum's reaction to small edits.
func TestChecksumSensitivity(t *testing.T) {
	page := FillBytes(DefaultPageSize, 77)
	base := ChecksumBytes(page)
	edited := func(edit func(p []byte)) uint64 {
		p := bytes.Clone(page)
		edit(p)
		return ChecksumBytes(p)
	}
	for i := range page {
		if edited(func(p []byte) { p[i] ^= 0x10 }) == base {
			t.Fatalf("flipping a bit of byte %d left the sum unchanged", i)
		}
	}
	swap := func(a, b int) func(p []byte) {
		return func(p []byte) {
			wa, wb := binary.LittleEndian.Uint64(p[8*a:]), binary.LittleEndian.Uint64(p[8*b:])
			binary.LittleEndian.PutUint64(p[8*a:], wb)
			binary.LittleEndian.PutUint64(p[8*b:], wa)
		}
	}
	for _, w := range [][2]int{{0, sumLanes}, {3, 3 + 5*sumLanes}, {0, 1}, {2, 511}, {10, 13}} {
		if edited(swap(w[0], w[1])) == base {
			t.Fatalf("swapping words %d and %d left the sum unchanged", w[0], w[1])
		}
	}
	if edited(func(p []byte) { p[DefaultPageSize-1]++ }) == base || edited(func(p []byte) { clear(p[DefaultPageSize-8:]) }) == base {
		t.Fatal("changing only the last word left the sum unchanged")
	}
	// The zero-padded tail word must not make lengths ambiguous.
	seen := map[uint64]int{}
	for _, n := range checksumSizes() {
		sum := ChecksumBytes(make([]byte, n))
		if m, dup := seen[sum]; dup {
			t.Fatalf("zero pages of %d and %d bytes share sum %#x", m, n, sum)
		}
		seen[sum] = n
	}
}

// TestChecksumSpread: the sharded scanner routes by sum % shards and the
// content table buckets by sum, so low bits must be even and sums distinct.
func TestChecksumSpread(t *testing.T) {
	const pages = 50000
	seen := make(map[uint64]struct{}, pages)
	var mod2 [2]int
	var mod4 [4]int
	for i := 0; i < pages; i++ {
		sum := ChecksumSeed(Seed(i), DefaultPageSize)
		seen[sum] = struct{}{}
		mod2[sum%2]++
		mod4[sum%4]++
	}
	if len(seen) != pages {
		t.Fatalf("%d distinct sums over %d distinct pages", len(seen), pages)
	}
	for _, n := range mod2 {
		if n < pages/2*97/100 || n > pages/2*103/100 {
			t.Fatalf("sum %% 2 split %v", mod2)
		}
	}
	for _, n := range mod4 {
		if n < pages/4*95/100 || n > pages/4*105/100 {
			t.Fatalf("sum %% 4 split %v", mod4)
		}
	}
}

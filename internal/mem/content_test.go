package mem

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
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

// fillReference is the specification of the seeded stream a byte at a time,
// with the multiply spelled out in 32-bit halves: byte i comes from word i/8,
// word pair k from the counter Mix(seed) + (k+1)·γ alone.
func fillReference(dst []byte, seed Seed) {
	const gamma, key = 0x9e3779b97f4a7c15, 0xd6e8feb86659fd93
	for i := range dst {
		c := uint64(Mix(seed)) + uint64(i/16+1)*gamma
		x, y := c, c^key
		x0, x1, y0, y1 := x&0xffffffff, x>>32, y&0xffffffff, y>>32
		mid := x1*y0 + (x0*y0)>>32
		mid2 := x0*y1 + mid&0xffffffff
		hi, lo := x1*y1+mid>>32+mid2>>32, x*y
		w := lo ^ c
		if i/8%2 == 1 {
			w = hi ^ lo
		}
		dst[i] = byte(w >> (8 * (i % 8)))
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

// TestFillKnownAnswer holds the stream to the same bytes on every platform:
// where int is 32 bits and bits.Mul64 is the portable fallback (CI runs this
// under GOARCH=386) as much as on amd64.
func TestFillKnownAnswer(t *testing.T) {
	for _, kat := range []struct {
		seed Seed
		want string
	}{
		{42, "706ffbfb2fd2f28d43cf1f647bc50ee06b2baea24e45450be545a7e28960acda"},
		{HashString("java/lang/Object"), "4054a7e3f5f530fc182767b481bd43e76b82616c24706e0aec489eebe7151dfe"},
	} {
		if got := hex.EncodeToString(FillBytes(32, kat.seed)); got != kat.want {
			t.Errorf("seed %#x: first 32 bytes %s, want %s", uint64(kat.seed), got, kat.want)
		}
	}
}

// TestFillPrefixConsistent: objects are written header-then-body at arbitrary
// sizes, so a short fill must be the start of a long one.
func TestFillPrefixConsistent(t *testing.T) {
	for _, seed := range []Seed{0, 42, HashString("java/lang/Object"), ^Seed(0)} {
		long := FillBytes(2*DefaultPageSize, seed)
		for _, n := range checksumSizes() {
			if !bytes.Equal(FillBytes(n, seed), long[:n]) {
				t.Fatalf("seed %#x: Fill(%d) is not a prefix of Fill(%d)", uint64(seed), n, len(long))
			}
		}
	}
}

// TestFillSeedsDistinct: distinct seeds must give distinct pages, already in
// their first 32 bytes and in their page checksums, and never an all-zero
// word — over the seeds the simulator favours (small consecutive integers,
// the extremes) and hashed ones.
func TestFillSeedsDistinct(t *testing.T) {
	const n = 1 << 18
	seeds := []Seed{0, ^Seed(0)}
	for i := Seed(1); len(seeds) < n; i++ {
		seeds = append(seeds, i, ^i, Mix(i), Combine(i, 7))
	}
	heads := make(map[[32]byte]Seed, len(seeds))
	sums := make(map[uint64]Seed, len(seeds))
	for _, seed := range seeds {
		var head [32]byte
		Fill(head[:], seed)
		for w := 0; w < len(head); w += 8 {
			if binary.LittleEndian.Uint64(head[w:]) == 0 {
				t.Fatalf("seed %#x: word %d is zero", uint64(seed), w/8)
			}
		}
		if other, dup := heads[head]; dup {
			t.Fatalf("seeds %#x and %#x share their first 32 bytes", uint64(other), uint64(seed))
		}
		heads[head] = seed
		sum := ChecksumSeed(seed, DefaultPageSize)
		if other, dup := sums[sum]; dup {
			t.Fatalf("seeds %#x and %#x share page checksum %#x", uint64(other), uint64(seed), sum)
		}
		sums[sum] = seed
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

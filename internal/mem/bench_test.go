package mem

import (
	"runtime"
	"testing"
)

var benchSink uint64

func BenchmarkChecksumBytes(b *testing.B) {
	page := FillBytes(DefaultPageSize, 42)
	b.SetBytes(DefaultPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += ChecksumBytes(page)
	}
}

func BenchmarkChecksumSeed(b *testing.B) {
	b.SetBytes(DefaultPageSize)
	for i := 0; i < b.N; i++ {
		benchSink += ChecksumSeed(Seed(i), DefaultPageSize)
	}
}

func BenchmarkFill(b *testing.B) {
	page := make([]byte, DefaultPageSize)
	b.SetBytes(DefaultPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fill(page, Seed(i))
	}
	benchSink += uint64(page[0])
}

// rewriteChurn is the guest write path the simulator spends its time in: a
// page is refilled, read (interning the seeded content) and partly rewritten
// (copying it into a private blob), over and over on the same frames.
type rewriteChurn struct {
	pm     *PhysMem
	frames []FrameID
	round  int
}

func newRewriteChurn(tb testing.TB, frames int) *rewriteChurn {
	c := &rewriteChurn{pm: NewPhysMem(int64(frames)*DefaultPageSize, DefaultPageSize)}
	for i := 0; i < frames; i++ {
		id, err := c.pm.Alloc()
		if err != nil {
			tb.Fatal(err)
		}
		c.frames = append(c.frames, id)
	}
	return c
}

func (c *rewriteChurn) run() {
	c.round++
	for i, id := range c.frames {
		c.pm.FillFrame(id, Seed(c.round%4*len(c.frames)+i))
		benchSink += uint64(c.pm.Bytes(id)[0])
		c.pm.Write(id, 128, []byte{byte(c.round), 1, 2, 3})
	}
}

func BenchmarkRewriteChurn(b *testing.B) {
	c := newRewriteChurn(b, 64)
	c.run()
	b.ReportAllocs()
	b.SetBytes(int64(len(c.frames)) * DefaultPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.run()
	}
}

// TestRewriteChurnAllocFree: once warm, rewriting a fixed frame set takes
// every page buffer from the store's recycled list. Blob headers and table
// slots (about 140 bytes per page) are still allocated, so the bound is on
// bytes: a sixteenth of a page per rewritten page, where allocating the two
// buffers each rewrite needs would cost two pages.
func TestRewriteChurnAllocFree(t *testing.T) {
	c := newRewriteChurn(t, 64)
	for i := 0; i < 8; i++ { // every seed's checksum cached, maps grown
		c.run()
	}
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		c.run()
	}
	runtime.ReadMemStats(&after)
	perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(c.frames))
	if perPage >= DefaultPageSize/16 {
		t.Fatalf("%.0f bytes allocated per rewritten page: page buffers are not recycled", perPage)
	}
	if st := c.pm.ContentStats(); st.Blobs != len(c.frames) || st.BlobBytes != int64(len(c.frames))*DefaultPageSize {
		t.Fatalf("ContentStats %+v: want one live blob per frame, recycled buffers not counted", st)
	}
}

package cds

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/classlib"
	"repro/internal/mem"
)

func testCorpus() *classlib.Corpus {
	return classlib.NewCorpus("J9-SR9", 64)
}

func TestBuildAndLookup(t *testing.T) {
	c := testCorpus()
	order := c.Stack(classlib.GroupJDK, classlib.GroupDerby)
	img := Build("was", "J9-SR9", 64<<20, order)
	if img.ClassCount() != len(order) {
		t.Fatalf("count = %d, want %d", img.ClassCount(), len(order))
	}
	e, ok := img.Lookup(order[0].Name)
	if !ok || e.Offset < headerBytes || e.Size != order[0].ROMSize {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	if _, ok := img.Lookup("no.such.Class"); ok {
		t.Fatal("phantom lookup")
	}
}

func TestEntriesNonOverlappingAndOrdered(t *testing.T) {
	c := testCorpus()
	img := Build("was", "v", 64<<20, c.Stack(classlib.GroupJDK, classlib.GroupOSGi))
	prevEnd := int64(headerBytes)
	for _, e := range img.Entries() {
		if e.Offset < prevEnd {
			t.Fatalf("entry %s overlaps previous (off %d < %d)", e.Name, e.Offset, prevEnd)
		}
		if e.Offset%entryAlign != 0 {
			t.Fatalf("entry %s misaligned at %d", e.Name, e.Offset)
		}
		prevEnd = e.Offset + int64(e.Size)
	}
}

func TestCapacityOverflow(t *testing.T) {
	c := testCorpus()
	order := c.Stack(classlib.GroupJDK)
	// Capacity for roughly half the classes.
	var half int64
	for _, cl := range order[:len(order)/2] {
		half += int64(cl.ROMSize) + entryAlign
	}
	img := Build("small", "v", headerBytes+half, order)
	if len(img.Overflowed) == 0 {
		t.Fatal("no overflow with undersized cache")
	}
	if img.UsedBytes() > img.Capacity {
		t.Fatal("used exceeds capacity")
	}
	// Overflowed classes are not in the index.
	if _, ok := img.Lookup(img.Overflowed[0]); ok {
		t.Fatal("overflowed class present in index")
	}
}

func TestDuplicateLoadsStoredOnce(t *testing.T) {
	c := testCorpus()
	order := c.Stack(classlib.GroupDerby)
	doubled := append(append([]*classlib.Class(nil), order...), order...)
	img := Build("was", "v", 64<<20, doubled)
	if img.ClassCount() != len(order) {
		t.Fatalf("count = %d, want %d (dedup)", img.ClassCount(), len(order))
	}
}

func TestFileBytesDeterministic(t *testing.T) {
	c := testCorpus()
	order := c.Stack(classlib.GroupDerby, classlib.GroupOSGi)
	img1 := Build("was", "v", 32<<20, order)
	img2 := Build("was", "v", 32<<20, order)
	b1 := img1.FileBytes(c)
	b2 := img2.FileBytes(c)
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical cold runs produced different cache files")
	}
}

func TestFileBytesOrderSensitive(t *testing.T) {
	// A different load order produces a different layout — this is exactly
	// why all VMs must share ONE populated file rather than each populating
	// its own.
	c := testCorpus()
	order := c.Stack(classlib.GroupDerby)
	rev := make([]*classlib.Class, len(order))
	for i, cl := range order {
		rev[len(order)-1-i] = cl
	}
	a := Build("was", "v", 32<<20, order).FileBytes(c)
	b := Build("was", "v", 32<<20, rev).FileBytes(c)
	if bytes.Equal(a, b) {
		t.Fatal("layout insensitive to load order")
	}
}

func TestFileBytesMatchClassContent(t *testing.T) {
	c := testCorpus()
	order := c.Stack(classlib.GroupDerby)
	img := Build("was", "v", 32<<20, order)
	data := img.FileBytes(c)
	cl := order[3]
	e, _ := img.Lookup(cl.Name)
	want := mem.FillBytes(cl.ROMSize, cl.Seed)
	if !bytes.Equal(data[e.Offset:e.Offset+int64(e.Size)], want) {
		t.Fatal("image bytes differ from class ROM content")
	}
}

func TestPagesSpanned(t *testing.T) {
	e := Entry{Offset: 4096, Size: 4096}
	if f, l := e.PagesSpanned(4096); f != 1 || l != 1 {
		t.Fatalf("exact page: %d..%d", f, l)
	}
	e = Entry{Offset: 4000, Size: 200}
	if f, l := e.PagesSpanned(4096); f != 0 || l != 1 {
		t.Fatalf("straddling: %d..%d", f, l)
	}
}

func TestPropertyEntriesWithinCapacity(t *testing.T) {
	c := testCorpus()
	all := c.Stack(classlib.GroupJDK, classlib.GroupWASCore)
	f := func(capRaw uint32) bool {
		capacity := int64(capRaw%((16<<20)-headerBytes)) + headerBytes + 1
		img := Build("p", "v", capacity, all)
		for _, e := range img.Entries() {
			if e.Offset+int64(e.Size) > capacity {
				return false
			}
		}
		return img.ClassCount()+len(img.Overflowed) == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	c := testCorpus()
	img := Build("was", "J9-SR9", 16<<20, c.Stack(classlib.GroupDerby))
	if err := img.Validate("J9-SR9", 16<<20); err != nil {
		t.Fatalf("valid cache rejected: %v", err)
	}
	if err := img.Validate("J9-SR10", 16<<20); err == nil {
		t.Fatal("version mismatch accepted")
	}
	if err := img.Validate("J9-SR9", 8<<20); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	if err := img.Validate("J9-SR9", 0); err != nil {
		t.Fatalf("capacity wildcard rejected: %v", err)
	}
}

func TestVerifyFile(t *testing.T) {
	c := testCorpus()
	img := Build("was", "v", 16<<20, c.Stack(classlib.GroupDerby))
	data := img.FileBytes(c)
	if err := img.VerifyFile(data); err != nil {
		t.Fatalf("own file rejected: %v", err)
	}
	if err := img.VerifyFile(data[:len(data)-1]); err == nil {
		t.Fatal("truncated file accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if err := img.VerifyFile(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	other := Build("was", "v", 16<<20, c.Stack(classlib.GroupOSGi))
	if err := other.VerifyFile(data); err == nil {
		t.Fatal("foreign file accepted")
	}
}

// Property: PagesSpanned covers exactly the pages the entry's byte range
// overlaps.
func TestPropertyPagesSpanned(t *testing.T) {
	f := func(offRaw uint32, sizeRaw uint16) bool {
		e := Entry{Offset: int64(offRaw % (1 << 24)), Size: int(sizeRaw%32768) + 1}
		first, last := e.PagesSpanned(4096)
		if first > last {
			return false
		}
		startOK := int64(first)*4096 <= e.Offset && e.Offset < int64(first+1)*4096
		endByte := e.Offset + int64(e.Size) - 1
		endOK := int64(last)*4096 <= endByte && endByte < int64(last+1)*4096
		return startOK && endOK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

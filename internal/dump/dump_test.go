package dump

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cds"
	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/jvm"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memanalysis"
	"repro/internal/simclock"
)

const scale = 64

// buildLive assembles a small shared-cache cluster, scans it, and returns
// the live pieces.
func buildLive(t *testing.T) (*hypervisor.Host, []*guestos.Kernel) {
	t.Helper()
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{Name: "dump-t", RAMBytes: 256 << 20}, clock)
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	img := cds.Build("was", jvm.RuntimeVersion, 8<<20, corpus.Stack(classlib.GroupDerby))
	fileBytes := img.FileBytes(corpus)

	var kernels []*guestos.Kernel
	for i := 0; i < 2; i++ {
		vmp := host.NewVM(hypervisor.VMConfig{
			Name: "VM", GuestMemBytes: 48 << 20, OverheadBytes: 1 << 20, Seed: mem.Seed(i + 1),
		})
		k := guestos.Boot(vmp, guestos.KernelConfig{Version: "v", TextBytes: 2 << 20, DataBytes: 1 << 20})
		k.FS().Install(&guestos.File{Path: "/cache", Data: fileBytes})
		j := jvm.Launch(k, "java", corpus, jvm.Options{
			GCPolicy: jvm.OptThruput, HeapBytes: 8 << 20, Threads: 2,
			SharedClasses: true, CacheImage: img, CachePath: "/cache",
		}, jvm.DefaultSizes(scale))
		j.LoadGroups(true, classlib.GroupDerby)
		for it := 0; it < 200; it++ {
			j.Heap().Alloc(1024, mem.Seed(it), it%8 == 0)
		}
		kernels = append(kernels, k)
	}
	k := ksm.New(host, ksm.DefaultConfig())
	k.RegisterAll()
	total := 0
	for _, vm := range host.VMs() {
		total += vm.GuestPages()
	}
	k.ScanChunk(total*3 + 1)
	return host, kernels
}

func TestRoundTripSerialization(t *testing.T) {
	host, kernels := buildLive(t)
	d := Capture(host, kernels)
	data := d.Bytes()
	if len(data) == 0 {
		t.Fatal("empty dump")
	}
	d2, err := FromBytes(data)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if d2.HostName != d.HostName || len(d2.Guests) != len(d.Guests) {
		t.Fatal("round trip lost structure")
	}
	if len(d2.FrameChecksums) != len(d.FrameChecksums) {
		t.Fatal("frame checksums lost")
	}
	for i := range d.Guests {
		if len(d2.Guests[i].HostPTEs) != len(d.Guests[i].HostPTEs) {
			t.Fatalf("guest %d PTEs lost", i)
		}
		if len(d2.Guests[i].Processes) != len(d.Guests[i].Processes) {
			t.Fatalf("guest %d processes lost", i)
		}
	}
}

func TestBadDumpRejected(t *testing.T) {
	if _, err := FromBytes([]byte("not a dump")); err == nil {
		t.Fatal("garbage accepted")
	}
	host, kernels := buildLive(t)
	d := Capture(host, kernels)
	// Version 1 is what builds with the FNV-1a page checksum wrote, version 2
	// what builds with the xorshift64* seeded stream wrote.
	for _, version := range []int{1, 2, 99} {
		d.Version = version
		want := fmt.Sprintf("dump: format version %d, want %d", version, FormatVersion)
		if _, err := FromBytes(d.Bytes()); err == nil || err.Error() != want {
			t.Fatalf("version-%d dump: error %v, want %q", version, err, want)
		}
	}
}

// TestOfflineMatchesLive is the key property: analyzing the dump offline
// must produce byte-for-byte the same attribution as the live analyzer —
// the dump loses nothing the methodology needs.
func TestOfflineMatchesLive(t *testing.T) {
	host, kernels := buildLive(t)

	live := memanalysis.Analyze(host, kernels)
	d, err := FromBytes(Capture(host, kernels).Bytes()) // through serialization
	if err != nil {
		t.Fatal(err)
	}
	off := Analyze(d)

	if off.TotalGuestBytes() != live.TotalGuestBytes() {
		t.Fatalf("totals differ: offline %d, live %d", off.TotalGuestBytes(), live.TotalGuestBytes())
	}

	lb, ob := live.VMBreakdowns(), off.VMBreakdowns()
	if len(lb) != len(ob) {
		t.Fatalf("VM breakdown count: %d vs %d", len(lb), len(ob))
	}
	for i := range lb {
		if lb[i] != ob[i] {
			t.Fatalf("VM breakdown %d differs:\nlive    %+v\noffline %+v", i, lb[i], ob[i])
		}
	}

	lj, oj := live.JavaBreakdowns(), off.JavaBreakdowns()
	if len(lj) != len(oj) {
		t.Fatalf("java breakdown count: %d vs %d", len(lj), len(oj))
	}
	for i := range lj {
		if lj[i].PID != oj[i].PID || lj[i].VMID != oj[i].VMID {
			t.Fatalf("java breakdown %d identity differs", i)
		}
		for cat, lcu := range lj[i].ByCat {
			if oj[i].ByCat[cat] != lcu {
				t.Fatalf("java breakdown %d category %q differs: live %+v offline %+v",
					i, cat, lcu, oj[i].ByCat[cat])
			}
		}
	}
}

func TestDumpIsCompressed(t *testing.T) {
	host, kernels := buildLive(t)
	d := Capture(host, kernels)
	data := d.Bytes()
	var raw bytes.Buffer
	// A dump of tens of thousands of PTEs must compress well below the
	// naive 16+ bytes per entry.
	entries := 0
	for _, g := range d.Guests {
		entries += len(g.HostPTEs)
		for _, p := range g.Processes {
			entries += len(p.PTEs)
		}
	}
	if len(data) > entries*16 {
		t.Fatalf("dump %d bytes for %d entries: compression missing?", len(data), entries)
	}
	_ = raw
}

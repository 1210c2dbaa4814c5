package ksm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// scanOutcome is everything a figure can observe from a scripted scanner run:
// the scanner statistics word for word, the content store's counters, the
// pages the pool materialized, the pool occupancy before and after an
// Unmerge (which frees every stable frame), and which pages share a frame —
// as a partition, since frame numbers are not observable (DESIGN.md §6).
type scanOutcome struct {
	stats        Stats
	content      mem.ContentStats
	materialized uint64
	inUse        int
	afterUnmerge int
	classes      int    // distinct frames behind the resident pages
	partition    string // sharingPartition digest
}

// sharingPartition numbers the frames behind every guest page by first
// occurrence, VM by VM in page order (a non-resident page is -1), and
// digests the result: two runs share pages alike exactly when the digests
// match, whatever frame numbers they were handed. It also reports the number
// of classes.
func sharingPartition(f *fixture) (digest string, classes int) {
	class := map[mem.FrameID]int32{}
	h := sha256.New()
	var word [4]byte
	for _, vm := range f.vms {
		for i := 0; i < vm.GuestPages(); i++ {
			id := int32(-1)
			if fr, ok := vm.ResolveResident(vm.MemslotBase() + mem.VPN(i)); ok {
				c, seen := class[fr]
				if !seen {
					c = int32(len(class))
					class[fr] = c
				}
				id = c
			}
			binary.LittleEndian.PutUint32(word[:], uint32(id))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), len(class)
}

// addVM boots a guest mid-run whose pages 0..7 hold the shared content
// fillShared writes, registers it with the scanner and adds it to the
// fixture.
func (f *fixture) addVM(guestPages int, seed mem.Seed) {
	vm := f.host.NewVM(hypervisor.VMConfig{Name: "late", GuestMemBytes: int64(guestPages) * pg, Seed: seed})
	for i := uint64(0); i < 8; i++ {
		vm.FillGuestPage(i, mem.Seed(100+i))
	}
	f.k.Register(vm)
	f.vms = append(f.vms, vm)
}

// fillShared writes content shared by every VM into pages 0..7 and content
// unique to each VM into pages 8..11.
func (f *fixture) fillShared() {
	for vi, vm := range f.vms {
		for i := uint64(0); i < 8; i++ {
			vm.FillGuestPage(i, mem.Seed(100+i))
		}
		for i := uint64(8); i < 12; i++ {
			vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*1000+i))
		}
	}
}

// unregister drops VM vi from the scanner, kills it and forgets it.
func (f *fixture) unregister(vi int) {
	f.k.Unregister(f.vms[vi])
	f.host.KillVM(f.vms[vi])
	f.vms = append(f.vms[:vi:vi], f.vms[vi+1:]...)
}

// randomChurn is three guests under rounds of seeded random writes — content
// convergent across the guests, divergent per guest, or zero — each round
// followed by a wake-up of uneven length; one guest is unregistered and killed
// mid-pass (mid-round once incremental), then everything is unmerged, and the
// churn goes on.
func randomChurn(incremental bool) func(t *testing.T) *fixture {
	return func(t *testing.T) *fixture {
		const guestPages = 48
		var f *fixture
		if incremental {
			f = newDirtyFixture(t, 2048, 3, guestPages, 0, incrementalConfig())
		} else {
			f = newFixture(t, 2048, 3, guestPages, DefaultConfig())
		}
		rng := mem.Seed(34)
		writes := func() {
			for vi, vm := range f.vms {
				for p := 0; p < 12; p++ {
					rng = mem.Mix(rng)
					gpfn := uint64(rng>>8) % guestPages
					switch uint64(rng) % 4 {
					case 0, 1:
						vm.FillGuestPage(gpfn, mem.Seed(700+gpfn%12))
					case 2:
						vm.FillGuestPage(gpfn, mem.Combine(mem.Seed(vi), rng))
					case 3:
						vm.ZeroGuestPage(gpfn)
					}
				}
			}
		}
		round := func() {
			writes()
			f.k.ScanChunk(40 + int(uint64(rng)%80))
		}
		for i := 0; i < 8; i++ {
			round()
		}
		writes()
		if f.k.ScanChunk(5); len(f.k.queue) == 0 {
			t.Fatal("not mid-pass at the unregister")
		}
		f.unregister(1)
		for i := 0; i < 4; i++ {
			round()
		}
		f.k.Unmerge()
		for i := 0; i < 6; i++ {
			round()
		}
		return f
	}
}

func captureScanOutcome(f *fixture) scanOutcome {
	pm := f.host.Phys()
	o := scanOutcome{
		stats:        f.k.Stats(),
		content:      pm.ContentStats(),
		materialized: pm.Stats().Materialized,
		inUse:        pm.FramesInUse(),
	}
	o.partition, o.classes = sharingPartition(f)
	f.k.Unmerge()
	o.afterUnmerge = pm.FramesInUse()
	return o
}

// TestScanOutcomePinned holds the scanner's observable outcome on scripted
// scenarios to pinned values: linear churn with a mid-run unregister, the
// dirty-ring incremental path, pass-sized batches, guests spanning several
// radix leaves and partial huge-page splitting; then the scan queue's seams —
// the linear→incremental switch inside a wake-up, Register mid-pass and while
// incremental, Unregister of the last region mid-pass and of every VM at a
// pass boundary, Unmerge in either mode, ring overflow, and partial splits
// under incremental mode; last, seeded random churn through an Unregister
// and an Unmerge, in either mode. Verify holds before and after each
// scenario's closing Unmerge. A change to the scanner that moves any merge,
// counter, interned blob or sharing class shows up here.
func TestScanOutcomePinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) *fixture
		want scanOutcome
	}{
		{"linear", func(t *testing.T) *fixture {
			f := newFixture(t, 2048, 3, 24, DefaultConfig())
			for vi, vm := range f.vms {
				for i := uint64(0); i < 8; i++ {
					vm.FillGuestPage(i, mem.Seed(100+i)) // duplicated across all VMs
				}
				vm.FillGuestPage(8, mem.Seed(50)) // duplicated within and across VMs
				vm.FillGuestPage(9, mem.Seed(50))
				for i := uint64(10); i < 20; i++ {
					vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*1000+i)) // unique
				}
			}
			f.scanPasses(3)
			// Churn: break two shared pages with a fresh duplicate pair, and
			// point a unique page at already-stable content.
			f.vms[0].FillGuestPage(2, mem.Seed(9001))
			f.vms[1].FillGuestPage(2, mem.Seed(9001))
			f.vms[2].FillGuestPage(15, mem.Seed(103))
			f.scanPasses(3)
			f.k.Unregister(f.vms[1])
			f.scanPasses(2)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 10, PagesSharing: 31, SavedBytes: 86016, FullScans: 9, PagesScanned: 579,
				StableMerges: 13, UnstableMerges: 10, ChecksumSkips: 63, AlreadyShared: 183, NotResident: 96,
				COWBreaks: 2, CPUBusy: 1446},
			content:      mem.ContentStats{Blobs: 39, BlobBytes: 159744, InternedBlobs: 39, SeedSums: 40, InternHits: 22},
			materialized: 40, inUse: 39, afterUnmerge: 59, classes: 39, partition: "437142f455081fa3",
		}},
		{"incremental", func(t *testing.T) *fixture {
			f := newDirtyFixture(t, 2048, 3, 32, 0, incrementalConfig())
			for _, vm := range f.vms {
				for i := uint64(0); i < 8; i++ {
					vm.FillGuestPage(i, mem.Seed(500+i))
				}
			}
			f.k.ScanChunk(96)
			f.k.ScanChunk(96)
			if !f.k.incremental {
				t.Fatal("not incremental after two passes")
			}
			// Post-convergence churn: break shared pages, seed a new duplicate
			// pair and rewrite a private page, then enough rounds for the
			// two-sighting gate to settle everything.
			f.vms[0].FillGuestPage(2, mem.Seed(9001))
			f.vms[1].FillGuestPage(20, mem.Seed(8000))
			f.vms[2].FillGuestPage(20, mem.Seed(8000))
			f.vms[2].FillGuestPage(25, mem.Seed(8500))
			for i := 0; i < 4; i++ {
				f.k.ScanChunk(96)
			}
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 9, PagesSharing: 25, SavedBytes: 65536, FullScans: 2, PagesScanned: 200,
				StableMerges: 8, UnstableMerges: 9, ChecksumSkips: 28, NotResident: 144, COWBreaks: 1,
				IncrementalRounds: 2, IncrementalScanned: 8, DirtyDrained: 28, CPUBusy: 500},
			content:      mem.ContentStats{Blobs: 11, BlobBytes: 45056, InternedBlobs: 11, SeedSums: 11, InternHits: 16},
			materialized: 11, inUse: 11, afterUnmerge: 27, classes: 11, partition: "1740ebb99f02c8c5",
		}},
		{"pass-sized-batch", func(t *testing.T) *fixture {
			f := newFixture(t, 4096, 4, 128, DefaultConfig())
			for vi, vm := range f.vms {
				for i := uint64(0); i < 64; i++ {
					vm.FillGuestPage(i, mem.Seed(100+i))
				}
				for i := uint64(64); i < 96; i++ {
					vm.FillGuestPage(i, mem.Seed(uint64(vi+1)*10000+i))
				}
			}
			f.scanPasses(3)
			f.vms[0].FillGuestPage(5, mem.Seed(31337))
			f.vms[3].FillGuestPage(70, mem.Seed(107))
			f.scanPasses(2)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 64, PagesSharing: 256, SavedBytes: 786432, FullScans: 5, PagesScanned: 2562,
				StableMerges: 129, UnstableMerges: 64, ChecksumSkips: 386, AlreadyShared: 768, NotResident: 640,
				COWBreaks: 1, CPUBusy: 6404},
			content:      mem.ContentStats{Blobs: 192, BlobBytes: 786432, InternedBlobs: 192, SeedSums: 193, InternHits: 192},
			materialized: 193, inUse: 192, afterUnmerge: 384, classes: 192, partition: "08a390d7c3f44787",
		}},
		{"multi-leaf", func(t *testing.T) *fixture {
			const guestPages = 2048 + 256
			f := newFixture(t, 3*guestPages, 2, guestPages, DefaultConfig())
			for vi, vm := range f.vms {
				for i := uint64(0); i < guestPages; i++ {
					seed := mem.Seed(100 + i) // every third page duplicated across the VMs
					if i%3 != 0 {
						seed = mem.Seed(uint64(vi+1)*100000 + i)
					}
					vm.FillGuestPage(i, seed)
				}
			}
			f.scanPasses(3)
			// Churn in the first, a middle and the last leaf of each table: a
			// fresh duplicate pair over two shared pages, and a unique page
			// pointed at content that is already stable.
			for _, i := range []uint64{3, 1029, guestPages - 6} {
				f.vms[0].FillGuestPage(i, mem.Seed(70000+i))
				f.vms[1].FillGuestPage(i, mem.Seed(70000+i))
				f.vms[1].FillGuestPage(i+2, mem.Seed(100+i+3))
			}
			f.scanPasses(3)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 768, PagesSharing: 1539, SavedBytes: 3158016, FullScans: 6, PagesScanned: 27650,
				StableMerges: 3, UnstableMerges: 771, ChecksumSkips: 4617, AlreadyShared: 6136,
				COWBreaks: 6, StalePruned: 3, CPUBusy: 69124},
			content:      mem.ContentStats{Blobs: 3837, BlobBytes: 15716352, InternedBlobs: 3837, SeedSums: 3843, InternHits: 773},
			materialized: 3843, inUse: 3837, afterUnmerge: 4608, classes: 3837, partition: "71f8295718d84ea3",
		}},
		{"partial-split-huge", func(t *testing.T) *fixture {
			cfg := DefaultConfig()
			cfg.PartialSplitHuge = true
			f := hugeFixture(t, cfg)
			f.scanPasses(5)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 511, PagesSharing: 1022, SavedBytes: 2093056, FullScans: 5, PagesScanned: 10241,
				UnstableMerges: 511, ChecksumSkips: 1024, AlreadyShared: 3066, NotResident: 5120,
				HugeSkips: 4, HugePartialSplits: 1022, CPUBusy: 25602},
			content:      mem.ContentStats{Blobs: 512, BlobBytes: 2097152, InternedBlobs: 512, SeedSums: 512, InternHits: 511},
			materialized: 512, inUse: 513, afterUnmerge: 1024, classes: 513, partition: "873bfdafbaf8fd06",
		}},
		{"switch-mid-wakeup", func(t *testing.T) *fixture {
			f := newDirtyFixture(t, 2048, 3, 32, 0, incrementalConfig())
			f.fillShared()
			f.k.ScanChunk(50)
			// The rest of pass 1 and all of pass 2, whose end switches the
			// scanner: the budget left past that boundary is forfeited.
			f.k.ScanChunk(200)
			if !f.k.incremental {
				t.Fatal("not incremental after two passes")
			}
			f.vms[1].FillGuestPage(3, mem.Seed(9002))
			f.vms[2].FillGuestPage(30, mem.Seed(8))
			for i := 0; i < 3; i++ {
				f.k.ScanChunk(96)
			}
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 8, PagesSharing: 23, SavedBytes: 61440, FullScans: 2, PagesScanned: 196, StableMerges: 8,
				UnstableMerges: 8, ChecksumSkips: 38, NotResident: 120, COWBreaks: 1, IncrementalRounds: 2, IncrementalScanned: 4,
				DirtyDrained: 38, CPUBusy: 490},
			content:      mem.ContentStats{Blobs: 18, BlobBytes: 73728, InternedBlobs: 18, SeedSums: 22, InternHits: 15},
			materialized: 18, inUse: 22, afterUnmerge: 37, classes: 22, partition: "57c700c17463cf20",
		}},
		{"register-mid-pass", func(t *testing.T) *fixture {
			f := newFixture(t, 2048, 2, 32, DefaultConfig())
			f.fillShared()
			f.k.ScanChunk(40) // inside the second VM's region
			f.addVM(32, 3)
			f.k.ScanChunk(60)
			f.scanPasses(3)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 8, PagesSharing: 24, SavedBytes: 65536, FullScans: 4, PagesScanned: 389, StableMerges: 8,
				UnstableMerges: 8, ChecksumSkips: 32, AlreadyShared: 53, NotResident: 256, CPUBusy: 972},
			content:      mem.ContentStats{Blobs: 16, BlobBytes: 65536, InternedBlobs: 16, SeedSums: 16, InternHits: 15},
			materialized: 16, inUse: 16, afterUnmerge: 32, classes: 16, partition: "49029684bc971147",
		}},
		{"register-incremental", func(t *testing.T) *fixture {
			f := newDirtyFixture(t, 2048, 2, 32, 0, incrementalConfig())
			f.fillShared()
			f.k.ScanChunk(64)
			f.k.ScanChunk(64)
			if !f.k.incremental {
				t.Fatal("not incremental after two passes")
			}
			f.addVM(32, 3)
			for i := 0; i < 3; i++ {
				f.k.ScanChunk(64)
			}
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 8, PagesSharing: 24, SavedBytes: 65536, FullScans: 2, PagesScanned: 168, StableMerges: 8,
				UnstableMerges: 8, ChecksumSkips: 32, NotResident: 104, IncrementalRounds: 2, IncrementalScanned: 40,
				DirtyDrained: 32, CPUBusy: 420},
			content:      mem.ContentStats{Blobs: 12, BlobBytes: 49152, InternedBlobs: 12, SeedSums: 16, InternHits: 15},
			materialized: 12, inUse: 16, afterUnmerge: 32, classes: 16, partition: "49029684bc971147",
		}},
		{"unregister-last-mid-pass", func(t *testing.T) *fixture {
			f := newFixture(t, 2048, 3, 24, DefaultConfig())
			f.fillShared()
			f.k.ScanChunk(72 + 60) // pass 1, then into the last VM's region
			f.unregister(2)
			f.scanPasses(2)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 8, PagesSharing: 16, SavedBytes: 32768, FullScans: 4, PagesScanned: 229, StableMerges: 8,
				UnstableMerges: 8, ChecksumSkips: 36, AlreadyShared: 33, NotResident: 108, CPUBusy: 572},
			content:      mem.ContentStats{Blobs: 16, BlobBytes: 65536, InternedBlobs: 16, SeedSums: 20, InternHits: 15},
			materialized: 20, inUse: 16, afterUnmerge: 24, classes: 16, partition: "b1b3ff571a138cb3",
		}},
		{"unregister-all-at-boundary", func(t *testing.T) *fixture {
			f := newFixture(t, 2048, 2, 32, DefaultConfig())
			f.fillShared()
			f.k.ScanChunk(3 * 64) // exactly three passes
			f.unregister(0)
			f.unregister(0)
			f.k.ScanChunk(10)
			f.addVM(32, 3)
			f.addVM(32, 4)
			f.scanPasses(3)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 8, PagesSharing: 16, SavedBytes: 32768, FullScans: 7, PagesScanned: 385,
				UnstableMerges: 16, ChecksumSkips: 40, AlreadyShared: 33, NotResident: 264, StalePruned: 8, CPUBusy: 962},
			content:      mem.ContentStats{Blobs: 8, BlobBytes: 32768, InternedBlobs: 8, SeedSums: 16, InternHits: 14},
			materialized: 24, inUse: 8, afterUnmerge: 16, classes: 8, partition: "d2f18162b72ee536",
		}},
		{"unmerge-mid-pass", func(t *testing.T) *fixture {
			f := newFixture(t, 2048, 3, 24, DefaultConfig())
			f.fillShared()
			f.scanPasses(3)
			f.k.ScanChunk(30)
			f.k.Unmerge()
			f.scanPasses(3)
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 8, PagesSharing: 24, SavedBytes: 65536, FullScans: 6, PagesScanned: 464, StableMerges: 16,
				UnstableMerges: 16, ChecksumSkips: 72, AlreadyShared: 57, NotResident: 228, COWBreaks: 24, StalePruned: 8,
				CPUBusy: 1159},
			content:      mem.ContentStats{Blobs: 20, BlobBytes: 81920, InternedBlobs: 20, SeedSums: 20, InternHits: 15},
			materialized: 20, inUse: 20, afterUnmerge: 36, classes: 20, partition: "106ca80297ad213c",
		}},
		{"unmerge-incremental", func(t *testing.T) *fixture {
			f := newDirtyFixture(t, 2048, 3, 32, 0, incrementalConfig())
			f.fillShared()
			f.k.ScanChunk(96)
			f.k.ScanChunk(96)
			f.vms[0].FillGuestPage(2, mem.Seed(9001))
			f.k.ScanChunk(96)
			f.k.Unmerge()
			if f.k.incremental {
				t.Fatal("still incremental after Unmerge")
			}
			f.k.ScanChunk(96)
			f.k.ScanChunk(96)
			if !f.k.incremental {
				t.Fatal("not incremental again after two passes")
			}
			f.vms[1].FillGuestPage(20, mem.Seed(8000))
			f.vms[2].FillGuestPage(20, mem.Seed(8000))
			for i := 0; i < 3; i++ {
				f.k.ScanChunk(96)
			}
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 9, PagesSharing: 25, SavedBytes: 65536, FullScans: 4, PagesScanned: 389, StableMerges: 15,
				UnstableMerges: 17, ChecksumSkips: 75, NotResident: 240, COWBreaks: 24, StalePruned: 8, IncrementalRounds: 3,
				IncrementalScanned: 5, DirtyDrained: 62, CPUBusy: 972},
			content:      mem.ContentStats{Blobs: 17, BlobBytes: 69632, InternedBlobs: 17, SeedSums: 22, InternHits: 16},
			materialized: 17, inUse: 22, afterUnmerge: 38, classes: 22, partition: "b38ed7e6d454dc7b",
		}},
		{"ring-overflow", func(t *testing.T) *fixture {
			f := newDirtyFixture(t, 1024, 2, 64, 8, incrementalConfig())
			f.fillShared()
			f.k.ScanChunk(128)
			f.k.ScanChunk(128)
			for i := uint64(20); i < 40; i++ {
				f.vms[0].FillGuestPage(i, mem.Seed(3000+i))
				if i%2 == 0 {
					f.vms[1].FillGuestPage(i, mem.Seed(3000+i))
				}
			}
			for i := 0; i < 4; i++ {
				f.k.ScanChunk(128)
			}
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 18, PagesSharing: 36, SavedBytes: 73728, FullScans: 2, PagesScanned: 414,
				UnstableMerges: 18, ChecksumSkips: 54, AlreadyShared: 16, NotResident: 282, IncrementalRounds: 2,
				IncrementalScanned: 158, DirtyDrained: 32, RingOverflows: 4, CPUBusy: 1035},
			content:      mem.ContentStats{Blobs: 36, BlobBytes: 147456, InternedBlobs: 36, SeedSums: 36, InternHits: 17},
			materialized: 36, inUse: 36, afterUnmerge: 54, classes: 36, partition: "03b67578e956f143",
		}},
		{"partial-split-incremental", func(t *testing.T) *fixture {
			cfg := incrementalConfig()
			cfg.PartialSplitHuge = true
			f := newDirtyFixture(t, 6*hp, 2, 2*hp, 0, cfg)
			for _, vm := range f.vms {
				for i := uint64(0); i < hp; i++ {
					vm.FillGuestPage(i, mem.Seed(4000+i))
				}
				if got := vm.CollapseHuge(vm.MemslotBase(), 0); got.String() != "ok" {
					t.Fatalf("setup collapse: %v", got)
				}
			}
			f.k.ScanChunk(3 * hp)
			// The rest of pass 1 and all of pass 2, whose end switches the
			// scanner mid-wake-up.
			f.k.ScanChunk(6 * hp)
			if !f.k.incremental {
				t.Fatal("not incremental after two passes")
			}
			for _, i := range []uint64{0, 5, hp - 1, hp + 3} {
				f.vms[0].FillGuestPage(i, mem.Seed(9100+i))
				f.vms[1].FillGuestPage(i, mem.Seed(9100+i))
			}
			for i := 0; i < 4; i++ {
				f.k.ScanChunk(2 * hp)
			}
			return f
		}, scanOutcome{
			stats: Stats{PagesShared: 512, PagesSharing: 1024, SavedBytes: 2097152, FullScans: 2, PagesScanned: 5130,
				UnstableMerges: 514, ChecksumSkips: 1032, AlreadyShared: 1018, NotResident: 2048, COWBreaks: 4, StalePruned: 2,
				HugeSkips: 2, HugePartialSplits: 1022, IncrementalRounds: 2, IncrementalScanned: 1034, DirtyDrained: 2050,
				CPUBusy: 12825},
			content:      mem.ContentStats{Blobs: 513, BlobBytes: 2101248, InternedBlobs: 513, SeedSums: 516, InternHits: 514},
			materialized: 515, inUse: 514, afterUnmerge: 1026, classes: 514, partition: "e894996ed36ca418",
		}},
		{"random-churn-linear", randomChurn(false), scanOutcome{
			stats: Stats{PagesShared: 13, PagesSharing: 64, SavedBytes: 208896, FullScans: 13, PagesScanned: 1513,
				StableMerges: 187, UnstableMerges: 28, ChecksumSkips: 446, AlreadyShared: 300, NotResident: 332,
				COWBreaks: 168, StalePruned: 15, CPUBusy: 3777},
			content:      mem.ContentStats{Blobs: 29, BlobBytes: 118784, InternedBlobs: 29, SeedSums: 128, InternHits: 134},
			materialized: 87, inUse: 45, afterUnmerge: 96, classes: 45, partition: "6eba1bb2a32f2b64",
		}},
		{"random-churn-incremental", randomChurn(true), scanOutcome{
			stats: Stats{PagesShared: 12, PagesSharing: 57, SavedBytes: 184320, FullScans: 4, PagesScanned: 960,
				StableMerges: 189, UnstableMerges: 28, ChecksumSkips: 445, AlreadyShared: 4, NotResident: 187,
				COWBreaks: 175, StalePruned: 16, IncrementalRounds: 10, IncrementalScanned: 480, DirtyDrained: 508,
				CPUBusy: 2395},
			content:      mem.ContentStats{Blobs: 27, BlobBytes: 110592, InternedBlobs: 27, SeedSums: 127, InternHits: 134},
			materialized: 84, inUse: 51, afterUnmerge: 96, classes: 51, partition: "c35da76426122b97",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := c.run(t)
			if err := f.k.Verify(); err != nil {
				t.Fatal(err)
			}
			got := captureScanOutcome(f)
			if err := f.k.Verify(); err != nil {
				t.Fatalf("after Unmerge: %v", err)
			}
			if got != c.want {
				t.Fatalf("outcome moved:\ngot  %#v\nwant %#v", got, c.want)
			}
		})
	}
}

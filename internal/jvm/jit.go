package jvm

import (
	"encoding/binary"

	"repro/internal/guestos"
	"repro/internal/jitshare"
	"repro/internal/mem"
)

// JIT models the just-in-time compiler's memory behaviour (§3-4 of the
// paper):
//
//   - Compiled code goes into a code cache whose bytes depend on runtime
//     profile data, so they differ between processes even for the same
//     method — which is why the paper classifies JIT-compiled code as
//     unshareable.
//   - Compilation uses scratch segments that are written intensely during a
//     compile and recycled afterwards; the recycled pages stay resident
//     holding stale per-process compiler state, so the JIT work area is
//     both short-lived and unshareable (paper §4.A).
//
// With a shared code archive attached (ShareJIT mode, internal/jitshare)
// the first compilation of a method instead emits a position-independent
// body into the archive's canonical page-aligned slot — byte-identical
// across processes, so KSM merges it — while the profile state that made
// the private code unshareable moves into small per-process stubs
// (CatJITData). A later profile-driven recompilation rewrites the canonical
// slot with specialized per-process code, COW-breaking the merged pages:
// sharing decays as the workload warms.
type JIT struct {
	proc       *guestos.Process
	code       *arena
	scratch    *arena
	scratchCap int64
	pageSize   int

	// profileSeed randomizes generated code per process: it stands in for
	// the invocation counts, receiver types and branch profiles the real
	// JIT bakes into its output.
	profileSeed mem.Seed

	// share is the attached shared code archive (nil = the paper's measured
	// behaviour: all code private).
	share    *jitshare.Archive
	shareVMA *guestos.VMA
	// stubs holds the per-process profile/data stubs in ShareJIT mode.
	stubs      *arena
	methods    map[jitKey]*methodState
	methodList []*methodState

	stats JITStats
}

type jitKey struct {
	class mem.Seed
	m     int
}

// methodState tracks one compiled method in ShareJIT mode.
type methodState struct {
	class mem.Seed
	m     int
	entry jitshare.Entry
	// archived marks a method whose tier-1 body lives in the canonical
	// archive slot (false = archive overflow, body is private).
	archived bool
	tier     int
	stubAddr Addr
	// touches counts executions (archive page touches); crossing threshold
	// triggers the profile-driven tier-2 recompilation.
	touches   int
	threshold int
}

// JITStats counts compiler activity.
type JITStats struct {
	MethodsCompiled int
	CodeBytes       int64
	ScratchPeak     int64
	// ArchivedMethods counts tier-1 bodies emitted into the shared archive;
	// OverflowMethods counts hot methods that missed the archive and
	// compiled privately. Both stay zero without an archive.
	ArchivedMethods int
	OverflowMethods int
	// StubBytes is the private profile/data stub footprint.
	StubBytes int64
	// ReJITs counts profile-driven tier-2 recompilations; each one that hits
	// an archived method rewrites its canonical slot in place, adding the
	// slot's span to CanonicalPagesInvalidated (pages whose cross-process
	// sharing is permanently lost).
	ReJITs                    int
	CanonicalPagesInvalidated int
}

// scratchSegBytes is the JIT scratch segment granularity (structural, does
// not scale).
const scratchSegBytes = 64 << 10

// Re-JIT thresholds: a method is recompiled at tier 2 after its archive
// pages have been executed (touched) this many times. The per-method spread
// staggers the upgrades so sharing decays gradually instead of cliffing.
const (
	reJITTouchBase   = 8
	reJITTouchSpread = 64
)

func newJIT(proc *guestos.Process, codeSeg, scratchCap int64, share *jitshare.Archive) *JIT {
	if scratchCap < scratchSegBytes {
		scratchCap = scratchSegBytes
	}
	j := &JIT{
		proc:        proc,
		code:        newArena(proc, CatJITCode, "jit-code-cache", codeSeg),
		scratch:     newArena(proc, CatJITWork, "jit-scratch", scratchSegBytes),
		scratchCap:  scratchCap,
		pageSize:    proc.Kernel().PageSize(),
		profileSeed: mem.Combine(mem.HashString("jit-profile"), proc.Seed()),
	}
	if share != nil {
		j.share = share
		j.shareVMA = proc.MapAnon(share.UsedPages(), CatJITCode, "jitshare-archive")
		j.stubs = newArena(proc, CatJITData, "jit-profile-stubs", scratchSegBytes)
		j.methods = make(map[jitKey]*methodState)
	}
	return j
}

// Stats returns a snapshot of compiler counters.
func (j *JIT) Stats() JITStats { return j.stats }

// Shared reports whether a shared code archive is attached.
func (j *JIT) Shared() bool { return j.share != nil }

// Archive returns the attached shared code archive (nil when off).
func (j *JIT) Archive() *jitshare.Archive { return j.share }

// ShareArea describes this process's archive mapping for the jitshare
// sharing census; ok is false when no archive is attached.
func (j *JIT) ShareArea() (jitshare.Area, bool) {
	if j.shareVMA == nil {
		return jitshare.Area{}, false
	}
	return jitshare.Area{Proc: j.proc, Start: j.shareVMA.Start, Pages: j.share.UsedPages()}, true
}

// CompileMethod generates native code for method index m of a class. The
// code size scales with a per-method deterministic factor; without an
// archive the content mixes the class identity with the per-process
// profile. With an archive attached the first compilation emits the
// position-independent body into the canonical slot and the profile state
// into a private stub; compiling the same method again models the
// profile-driven tier-2 upgrade, which invalidates the canonical slot.
func (j *JIT) CompileMethod(classSeed mem.Seed, m int) {
	if j.share != nil {
		if ms, ok := j.methods[jitKey{classSeed, m}]; ok {
			j.upgrade(ms)
			return
		}
	}
	size := jitshare.BodySize(classSeed, m)
	j.scratchBurst(size)
	if j.share != nil {
		j.compileShared(classSeed, m, size)
		return
	}
	j.code.allocFill(size, mem.Combine(classSeed, mem.Seed(m), j.profileSeed))
	j.stats.MethodsCompiled++
	j.stats.CodeBytes += int64(size)
}

// scratchBurst charges the compiler's working set for one compilation,
// written with per-process intermediate data. The scratch pool is bounded:
// when it fills, freed segments are recycled (still resident) — the paper's
// "short-lived work area" behaviour.
func (j *JIT) scratchBurst(size int) {
	scratchSize := size * 4
	if j.scratch.allocated+int64(scratchSize) > j.scratchCap {
		j.FinishBurst()
	}
	sa := j.scratch.alloc(scratchSize)
	j.scratch.fill(sa, scratchSize, mem.Combine(j.profileSeed, mem.Seed(sa)))
	if j.scratch.allocated > j.stats.ScratchPeak {
		j.stats.ScratchPeak = j.scratch.allocated
	}
}

// compileShared emits a method's tier-1 body in ShareJIT mode: the
// position-independent code at its canonical slot (or privately on archive
// overflow) and the profile stub in the private data arena.
func (j *JIT) compileShared(classSeed mem.Seed, m int, size int) {
	ms := &methodState{class: classSeed, m: m, tier: 1}
	if e, ok := j.share.Lookup(classSeed, m); ok {
		ms.entry = e
		ms.archived = true
		// The body's bytes derive only from (archive version, class,
		// method): identical in every process, at the same page-aligned
		// offset — KSM merge fodder.
		fillBytes(j.proc, j.pageSize, j.slotAddr(e),
			e.Size, jitshare.BodySeed(j.share.Version, classSeed, m))
		j.stats.ArchivedMethods++
	} else {
		// Overflow: the archive filled, so this method compiles exactly as
		// the paper measured — private, profile-mixed, unshareable.
		j.code.allocFill(size, mem.Combine(classSeed, mem.Seed(m), j.profileSeed))
		j.stats.OverflowMethods++
	}
	// The profile/data stub: counters, receiver-type caches, branch
	// profiles. Content is per-process by nature, but the footprint is a
	// fraction of the body's — that asymmetry is ShareJIT's whole win.
	stubSize := stubBytes(classSeed, m)
	ms.stubAddr = j.stubs.allocFill(stubSize, mem.Combine(j.profileSeed, classSeed, mem.Seed(m)))
	ms.threshold = reJITTouchBase +
		int(uint64(mem.Mix(mem.Combine(classSeed, mem.Seed(m), mem.HashString("rejit-threshold"))))%reJITTouchSpread)
	j.methods[jitKey{classSeed, m}] = ms
	j.methodList = append(j.methodList, ms)
	j.stats.MethodsCompiled++
	j.stats.CodeBytes += int64(size)
	j.stats.StubBytes += int64(stubSize)
}

// stubBytes sizes a method's profile stub: roughly 1/16th of the body,
// deterministic per method.
func stubBytes(classSeed mem.Seed, m int) int {
	r := mem.Mix(mem.Combine(mem.HashString("jit-stub"), classSeed, mem.Seed(m)))
	return 128 + int(uint64(r)%768)
}

// slotAddr converts an archive entry's canonical page offset into this
// process's virtual address.
func (j *JIT) slotAddr(e jitshare.Entry) Addr {
	return Addr((int64(j.shareVMA.Start) + int64(e.PageOff)) * int64(j.pageSize))
}

// upgrade recompiles a method at tier 2 against its accumulated profile.
// The optimized body embeds profile data and devirtualized call targets, so
// it is per-process: for an archived method the canonical slot is rewritten
// in place — the write COW-breaks any KSM-merged page and the slot never
// re-merges — and the larger specialized body lands in the private code
// cache, growing it.
func (j *JIT) upgrade(ms *methodState) {
	if ms.tier >= 2 {
		return
	}
	size := jitshare.BodySize(ms.class, ms.m)
	size += size / 2 // tier-2 inlining grows the body
	j.scratchBurst(size)
	if ms.archived {
		fillBytes(j.proc, j.pageSize, j.slotAddr(ms.entry), ms.entry.Size,
			mem.Combine(jitshare.BodySeed(j.share.Version, ms.class, ms.m),
				j.profileSeed, mem.HashString("rejit")))
		j.stats.CanonicalPagesInvalidated += ms.entry.Pages
	}
	j.code.allocFill(size, mem.Combine(ms.class, mem.Seed(ms.m), j.profileSeed, mem.HashString("tier2")))
	ms.tier = 2
	j.stats.ReJITs++
	j.stats.CodeBytes += int64(size)
}

// appendTouchRanges appends the code regions an executing thread cycles
// through to dst: the archive's populated prefix (when attached) followed
// by the private code cache segments.
func (j *JIT) appendTouchRanges(dst []touchRange) []touchRange {
	if j.shareVMA != nil {
		dst = append(dst, touchRange{v: j.shareVMA, pages: j.share.UsedPages()})
	}
	return j.code.appendUsedRanges(dst)
}

// noteExecution records that one archive page was executed: the owning
// method's invocation counter in its private stub is bumped (a write — stub
// pages churn, which is why they are CatJITData, not shareable code), and
// crossing the method's sampling threshold triggers the tier-2 re-JIT.
func (j *JIT) noteExecution(archivePage int) {
	e, ok := j.share.EntryAt(archivePage)
	if !ok {
		return
	}
	ms, ok := j.methods[jitKey{e.Class, e.Method}]
	if !ok {
		return // not compiled in this process (yet)
	}
	ms.touches++
	var ctr [8]byte
	binary.LittleEndian.PutUint64(ctr[:], uint64(ms.touches))
	writeBytes(j.proc, j.pageSize, ms.stubAddr, ctr[:])
	if ms.tier == 1 && ms.touches >= ms.threshold {
		j.upgrade(ms)
	}
}

// FinishBurst recycles the scratch segments after a compilation burst: the
// pages stay resident with stale compiler state (freeing does not zero),
// which is why the paper finds the JIT work area unshareable.
func (j *JIT) FinishBurst() {
	j.scratch.recycle()
	j.scratch.allocated = 0
}

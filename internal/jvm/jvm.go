package jvm

import (
	"fmt"

	"repro/internal/cds"
	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/jitshare"
	"repro/internal/mem"
)

// Options configures one JVM instance, mirroring the command-line surface
// the paper exercises (-Xmx/-Xms, -Xgcpolicy, -Xshareclasses, thread pool
// size).
type Options struct {
	// GCPolicy selects the collector.
	GCPolicy GCPolicy
	// HeapBytes is the flat heap size for OptThruput (max = min, as the
	// paper configures).
	HeapBytes int64
	// NurseryBytes/TenuredBytes size the GenCon generations (Fig. 8:
	// 530 MB nursery + 200 MB tenured).
	NurseryBytes int64
	TenuredBytes int64
	// CacheImage, when set, enables -Xshareclasses with a persistent
	// (memory-mapped file) cache: the populated cache directory, whose
	// bytes the guest file at CachePath must hold.
	CacheImage *cds.Image
	// JITArchive, when set, attaches a shared code archive (ShareJIT mode):
	// tier-1 compiled code becomes position-independent bodies at the
	// archive's canonical page-aligned offsets — identical across
	// processes, so KSM merges it — with per-process profile stubs split
	// into CatJITData. Nil keeps the paper's measured behaviour: all JIT
	// output private and unshareable.
	JITArchive *jitshare.Archive
	// Threads is the worker thread count (stacks scale with it).
	Threads int
}

// Sizes fixes the native-memory footprint of the runtime, already divided
// by the experiment's memory scale. DefaultSizes provides paper-calibrated
// values.
type Sizes struct {
	// Code area (file-backed, identical across VMs with the same image).
	JVMBinaryBytes      int64
	JVMLibsBytes        int64
	SystemLibsBytes     int64
	MiddlewareLibsBytes int64
	// LibDataBytes is the writable data of shared libraries (Table IV puts
	// it in the code area; it is per-process after relocation).
	LibDataBytes int64

	StackBytesPerThread int64

	// MallocStartupBytes is the native memory the runtime and class
	// libraries allocate during startup (parsed configuration, JNI
	// structures, zip caches) — per-process content, unshareable.
	MallocStartupBytes int64

	MetaSegBytes    int64
	MallocSegBytes  int64
	JITCodeSegBytes int64
	// JITScratchBytes bounds the JIT compiler's recycled scratch pool.
	JITScratchBytes  int64
	BulkReserveBytes int64
	NIOPoolBytes     int64
}

// DefaultSizes returns the paper-calibrated sizing divided by scale.
func DefaultSizes(scale int) Sizes {
	if scale < 1 {
		panic(fmt.Sprintf("jvm: scale %d", scale))
	}
	div := func(v int64) int64 {
		v /= int64(scale)
		if v < 4096 {
			v = 4096
		}
		return v
	}
	return Sizes{
		// Footprint quantities scale with the experiment.
		JVMBinaryBytes:      div(2 << 20),
		JVMLibsBytes:        div(20 << 20),
		SystemLibsBytes:     div(8 << 20),
		MiddlewareLibsBytes: div(12 << 20),
		LibDataBytes:        div(4 << 20),
		StackBytesPerThread: div(512 << 10),
		MallocStartupBytes:  div(56 << 20),
		BulkReserveBytes:    div(4 << 20),
		NIOPoolBytes:        div(5 << 20),
		JITScratchBytes:     div(24 << 20),
		// Allocator segment granularity is structural and does NOT scale:
		// shrinking segments to page size would page-align every class and
		// spuriously make private class metadata shareable.
		MetaSegBytes:    256 << 10,
		MallocSegBytes:  1 << 20,
		JITCodeSegBytes: 2 << 20,
	}
}

// JVM is one simulated Java VM process.
type JVM struct {
	proc   *guestos.Process
	opts   Options
	sizes  Sizes
	corpus *classlib.Corpus

	romSpace *arena // private ROMClass segments (no cache, or cache misses)
	ramSpace *arena // RAMClass segments (always private)
	cacheVMA *guestos.VMA

	heap *Heap
	jit  *JIT
	work *WorkArea

	stacks []*guestos.VMA

	metaCursor     uint64
	codeCursor     uint64
	cacheUsedPages int
	// touchBuf is TouchMetadata's and TouchJITCode's region list, rebuilt
	// in place on every call.
	touchBuf []touchRange

	loaded     map[string]bool
	loadedList []*classlib.Class

	stats LoadStats
}

// LoadStats counts class-loading outcomes.
type LoadStats struct {
	ClassesLoaded   int
	ClassesUnloaded int
	ROMFromCache    int
	ROMPrivate      int
	ROMBytesPrivate int64
	RAMBytes        int64
}

// CachePath is the guest file a JVM with a CacheImage attaches: where the
// pre-populated shared class cache is copied into every guest image.
const CachePath = "/opt/middleware/javasharedresources/classCache"

// RuntimeVersion labels the JVM build; identical versions produce identical
// code-area files across VMs.
const RuntimeVersion = "J9-Java6-SR9"

// Launch starts a JVM in the guest: spawns the process, maps the runtime's
// executables and libraries, creates the heap and native areas, and — when
// opts carry a CacheImage — attaches the shared class cache file.
func Launch(k *guestos.Kernel, name string, corpus *classlib.Corpus, opts Options, sizes Sizes) *JVM {
	proc := k.Spawn(name, true)
	j := &JVM{
		proc:   proc,
		opts:   opts,
		sizes:  sizes,
		corpus: corpus,
		loaded: make(map[string]bool),
	}

	j.mapCodeArea(k)

	j.romSpace = newArena(proc, CatClassMeta, "romclass-segments", sizes.MetaSegBytes)
	j.ramSpace = newArena(proc, CatClassMeta, "ramclass-segments", sizes.MetaSegBytes)

	if opts.CacheImage != nil {
		// A real JVM refuses a cache built by a different JVM level.
		if err := opts.CacheImage.Validate(RuntimeVersion, 0); err != nil {
			panic(err)
		}
		f := k.FS().MustLookup(CachePath)
		j.cacheVMA = proc.MapFile(f, 0, 0, CatClassMeta, "shared-class-cache")
		ps := int64(k.PageSize())
		j.cacheUsedPages = int((opts.CacheImage.UsedBytes() + ps - 1) / ps)
		proc.Touch(j.cacheVMA.Start, false) // cache header is read at attach
	}

	if opts.JITArchive != nil {
		if err := opts.JITArchive.Validate(RuntimeVersion); err != nil {
			panic(err)
		}
	}
	j.heap = newHeap(proc, opts.GCPolicy, opts.HeapBytes, opts.NurseryBytes, opts.TenuredBytes)
	j.jit = newJIT(proc, sizes.JITCodeSegBytes, sizes.JITScratchBytes, opts.JITArchive)
	j.work = newWorkArea(proc, sizes.MallocSegBytes)
	j.work.BulkReserve(sizes.BulkReserveBytes)
	j.work.SetupNIO(sizes.NIOPoolBytes)
	j.work.MallocStartup(sizes.MallocStartupBytes)

	j.mapStacks(opts.Threads)
	return j
}

// mapCodeArea maps the JVM binary and libraries from base-image files and
// creates their per-process writable data segments.
func (j *JVM) mapCodeArea(k *guestos.Kernel) {
	fs := k.FS()
	ps := int64(k.PageSize())
	files := []struct {
		path  string
		bytes int64
	}{
		{"/opt/ibm/java/bin/java", j.sizes.JVMBinaryBytes},
		{"/opt/ibm/java/lib/libj9vm.so", j.sizes.JVMLibsBytes},
		{"/lib64/libc-system.so", j.sizes.SystemLibsBytes},
		{"/opt/WAS/lib/native/middleware.so", j.sizes.MiddlewareLibsBytes},
	}
	for _, spec := range files {
		if spec.bytes < ps {
			spec.bytes = ps
		}
		f, ok := fs.Lookup(spec.path)
		if !ok {
			f = fs.InstallGenerated(spec.path, RuntimeVersion, spec.bytes)
		}
		v := j.proc.MapFile(f, 0, 0, CatCode, spec.path)
		// Only the executed portion of the binaries is resident; cold code
		// is never faulted in.
		hot := v.Pages() * 7 / 10
		if hot < 1 {
			hot = 1
		}
		for i := 0; i < hot; i++ {
			j.proc.Touch(v.Start+mem.VPN(i), false)
		}
	}
	// Writable data segments of the libraries: per-process content after
	// relocation, counted in the code area per Table IV.
	if pages := int(j.sizes.LibDataBytes / ps); pages > 0 {
		v := j.proc.MapAnon(pages, CatCode, "lib-data-segments")
		for vpn := v.Start; vpn < v.End; vpn++ {
			j.proc.FillPage(vpn, mem.Combine(mem.HashString("libdata"), j.proc.Seed(), mem.Seed(vpn)))
		}
	}
}

// mapStacks creates per-thread stacks, the lower part live with
// per-process frame data.
func (j *JVM) mapStacks(threads int) {
	ps := int64(j.proc.Kernel().PageSize())
	pages := int(j.sizes.StackBytesPerThread / ps)
	if pages < 1 {
		pages = 1
	}
	for t := 0; t < threads; t++ {
		v := j.proc.MapAnon(pages, CatStack, fmt.Sprintf("thread-%d-stack", t))
		j.stacks = append(j.stacks, v)
		live := pages * 6 / 10
		for i := 0; i < live; i++ {
			vpn := v.Start + mem.VPN(i)
			j.proc.FillPage(vpn, mem.Combine(mem.HashString("stack"), j.proc.Seed(), mem.Seed(t), mem.Seed(i)))
		}
	}
}

// TouchMetadata keeps the class metadata working set hot: executing
// bytecode reads ROMClasses (from the shared cache when attached, private
// segments otherwise) and vtables in RAMClasses. Reads fault pages resident
// without dirtying them, so shared cache pages remain shared. Only the
// populated portion of each region is touched.
func (j *JVM) TouchMetadata(step, pages int) {
	regions := j.ramSpace.appendUsedRanges(j.romSpace.appendUsedRanges(j.touchBuf[:0]))
	if j.cacheVMA != nil && j.cacheUsedPages > 0 {
		regions = append(regions, touchRange{v: j.cacheVMA, pages: j.cacheUsedPages})
	}
	j.touchBuf = regions
	j.touchRegions(regions, &j.metaCursor, pages)
}

// TouchJITCode keeps the compiled-code working set hot (executing it).
// With a shared code archive attached, executing an archive page also bumps
// the owning method's invocation counter in its private stub — the sampling
// that eventually triggers the tier-2 re-JIT and decays the sharing.
func (j *JVM) TouchJITCode(step, pages int) {
	regions := j.jit.appendTouchRanges(j.touchBuf[:0])
	j.touchBuf = regions
	if !j.jit.Shared() {
		j.touchRegions(regions, &j.codeCursor, pages)
		return
	}
	// The same cursor walk as touchRegions, over a snapshot of the regions
	// (an upgrade mid-loop grows the code arena; the new segments join the
	// rotation on the next call).
	var total int
	for _, r := range regions {
		total += r.pages
	}
	if total == 0 {
		return
	}
	for i := 0; i < pages; i++ {
		j.codeCursor++
		idx := int(j.codeCursor % uint64(total))
		for _, r := range regions {
			if idx < r.pages {
				j.proc.Touch(r.v.Start+mem.VPN(idx), false)
				if r.v == j.jit.shareVMA {
					j.jit.noteExecution(idx)
				}
				break
			}
			idx -= r.pages
		}
	}
}

// touchRegions read-touches pages cycling across a region list.
func (j *JVM) touchRegions(regions []touchRange, cursor *uint64, pages int) {
	if len(regions) == 0 {
		return
	}
	var total int
	for _, r := range regions {
		total += r.pages
	}
	if total == 0 {
		return
	}
	for i := 0; i < pages; i++ {
		*cursor++
		idx := int(*cursor % uint64(total))
		for _, r := range regions {
			if idx < r.pages {
				j.proc.Touch(r.v.Start+mem.VPN(idx), false)
				break
			}
			idx -= r.pages
		}
	}
}

// StackChurn rewrites one thread's live stack area (deep call activity),
// keeping stack pages volatile.
func (j *JVM) StackChurn(step int) {
	if len(j.stacks) == 0 {
		return
	}
	v := j.stacks[step%len(j.stacks)]
	live := v.Pages() * 6 / 10
	for i := 0; i < live; i++ {
		vpn := v.Start + mem.VPN(i)
		j.proc.FillPage(vpn, mem.Combine(mem.HashString("stack"), j.proc.Seed(), mem.Seed(step), mem.Seed(i)))
	}
}

// Accessors.

// Process returns the underlying guest process.
func (j *JVM) Process() *guestos.Process { return j.proc }

// Heap returns the object heap.
func (j *JVM) Heap() *Heap { return j.heap }

// JIT returns the compiler model.
func (j *JVM) JIT() *JIT { return j.jit }

// Work returns the native work area.
func (j *JVM) Work() *WorkArea { return j.work }

// Options returns the launch options.
func (j *JVM) Options() Options { return j.opts }

// LoadStats returns class-loading counters.
func (j *JVM) LoadStats() LoadStats { return j.stats }

// LoadedClasses lists loaded classes in this process's load order.
func (j *JVM) LoadedClasses() []*classlib.Class { return j.loadedList }

// LoadGroups loads the classes of the given groups. cacheAware marks
// whether these classes' loaders can use the shared cache: the paper notes
// the EJB application loaders in the measured J9 could not, so their
// classes stay private even with -Xshareclasses.
//
// The canonical group order is perturbed with the process's seed: class
// loading is driven by program execution (lazy initialization, thread
// interleaving), so the order — and therefore the private metadata layout —
// varies between processes. This is the §3.2 mechanism that defeats TPS
// without preloading.
func (j *JVM) LoadGroups(cacheAware bool, groups ...classlib.Group) {
	order := classlib.ShuffleWindows(j.corpus.Stack(groups...), j.proc.Seed(), loadOrderWindow)
	for _, cl := range order {
		j.loadClass(cl, cacheAware)
	}
}

// loadClass loads one class: the read-only ROM part from the shared cache
// when possible, otherwise into private segments; the writable RAM part
// always privately with per-process content.
func (j *JVM) loadClass(cl *classlib.Class, cacheAware bool) {
	if j.loaded[cl.Name] {
		return
	}
	j.loaded[cl.Name] = true
	j.loadedList = append(j.loadedList, cl)
	j.stats.ClassesLoaded++

	fromCache := false
	if cacheAware && j.opts.CacheImage != nil {
		if e, ok := j.opts.CacheImage.Lookup(cl.Name); ok {
			// Touch the cache pages this class spans: reading the ROMClass
			// faults the identical file-backed pages into every VM.
			first, last := e.PagesSpanned(j.proc.Kernel().PageSize())
			for p := first; p <= last; p++ {
				j.proc.Touch(j.cacheVMA.Start+mem.VPN(p), false)
			}
			j.stats.ROMFromCache++
			fromCache = true
		}
	}
	if !fromCache {
		// Private ROMClass: the bytes are position-independent and identical
		// in every VM — but their page alignment depends on everything
		// loaded before them, which the order perturbation scrambles.
		j.romSpace.allocFill(cl.ROMSize, cl.Seed)
		j.stats.ROMPrivate++
		j.stats.ROMBytesPrivate += int64(cl.ROMSize)
	}
	// RAMClass: vtables, static slots, resolution caches — full of
	// pointers, so per-process content.
	j.ramSpace.allocFill(cl.RAMSize, mem.Combine(mem.HashString("ramclass"), cl.Seed, j.proc.Seed()))
	j.stats.RAMBytes += int64(cl.RAMSize)
}

// UnloadClass discards a loaded class, as when its class loader dies
// (redeployed web application). Per §4.B of the paper:
//
//   - the writable RAMClass is freed (its bytes stay as garbage in the
//     metadata segments until the space is reused);
//   - a private ROMClass likewise becomes dead space;
//   - a ROMClass in the shared cache is NOT removed: the cache region stays
//     mapped, and if its pages were TPS-shared they remain shared — "the
//     preloaded read-only part of an unloaded class will stay in memory as
//     a part of the shared class cache even after it is unloaded".
//
// It reports whether the class was loaded.
func (j *JVM) UnloadClass(name string) bool {
	if !j.loaded[name] {
		return false
	}
	delete(j.loaded, name)
	for i, cl := range j.loadedList {
		if cl.Name == name {
			j.loadedList = append(j.loadedList[:i], j.loadedList[i+1:]...)
			break
		}
	}
	j.stats.ClassesLoaded--
	j.stats.ClassesUnloaded++
	return true
}

// JITWarm compiles the hottest methods of the loaded classes: hotPermille
// per-mille of all methods, chosen deterministically per class. The paper's
// steady-state WAS processes sit near 2 % of methods compiled.
func (j *JVM) JITWarm(hotPermille int) {
	for _, cl := range j.loadedList {
		n := classlib.HotMethods(cl, hotPermille)
		for m := 0; m < n; m++ {
			j.jit.CompileMethod(cl.Seed, m)
		}
	}
	j.jit.FinishBurst()
}

// loadOrderWindow is the reordering window of lazy class loading.
const loadOrderWindow = 48

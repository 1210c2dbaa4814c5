package workload

import (
	"fmt"

	"repro/internal/cds"
	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/jitshare"
	"repro/internal/jvm"
	"repro/internal/mem"
)

// DeployConfig controls how a workload instance is deployed into a guest.
type DeployConfig struct {
	// Scale divides every unscaled byte quantity.
	Scale int
	// CacheImage, when set, enables the paper's technique: the JVM attaches
	// this pre-populated cache, copied into the guest's image at
	// jvm.CachePath.
	CacheImage *cds.Image
	// PerVMNIOSalt, when nonzero, de-identifies the wire traffic per VM
	// (modelling real-world workloads rather than identical benchmark
	// drivers; the paper warns NIO sharing would not repeat in production).
	PerVMNIOSalt mem.Seed
	// DeferWarmup skips the deploy-time warmup burst; the caller drives it
	// later via Warmup, interleaved with hypervisor activity (the paper
	// runs the KSM scanner at full rate during startup and initialization).
	DeferWarmup bool
	// JITArchive, when set, attaches a shared code archive so tier-1 JIT
	// output is position-independent and cross-process shareable (the
	// ShareJIT extension); BuildJITArchive builds it.
	JITArchive *jitshare.Archive
}

// Instance is one running workload (one WAS or Tuscany process in one
// guest VM).
type Instance struct {
	Spec    Spec
	JVM     *jvm.JVM
	kernel  *guestos.Kernel
	cfg     DeployConfig
	logPath string

	// sessionCap is the live-session bound, scaled with the heap: the
	// logical session objects are paper-sized, so a scale× smaller heap can
	// hold scale× fewer of them.
	sessionCap int

	step     int
	sessions []*jvm.Object
	rng      mem.Seed

	stats InstanceStats
}

// InstanceStats counts driver activity.
type InstanceStats struct {
	Requests     uint64
	LazyClasses  int
	BytesAlloced int64
	// PerOp counts requests by operation name (empty when the spec has no
	// mix).
	PerOp map[string]uint64
}

// JarPath names the guest file holding a group's class archive.
func JarPath(g classlib.Group) string {
	return fmt.Sprintf("/opt/middleware/lib/%s.jar", g)
}

// InstallJars puts the workload's class archives into a guest image. JAR
// bytes are generated from the group identity and corpus version, so every
// guest built from the same base image has identical archives — the source
// of the cross-VM page-cache sharing in the guest-kernel area.
func InstallJars(k *guestos.Kernel, corpus *classlib.Corpus, spec Spec) {
	for _, g := range append(append([]classlib.Group(nil), spec.CacheAwareGroups...), spec.PrivateGroups...) {
		path := JarPath(g)
		if _, ok := k.FS().Lookup(path); ok {
			continue
		}
		size := corpus.GroupROMBytes(g) // class files ≈ their ROM bytes
		k.FS().InstallGenerated(path, corpus.Version, size)
	}
}

// BuildCache performs the cold run of §4.C: it populates a cache image from
// the canonical load order of the workload's cache-aware stack. The
// resulting image (and its file bytes) is what the datacenter administrator
// stores into the base image and thereby copies to every VM.
func BuildCache(corpus *classlib.Corpus, spec Spec, scale int) *cds.Image {
	capacity := spec.CacheBytes / int64(scale)
	if capacity < 64<<10 {
		capacity = 64 << 10
	}
	return cds.Build(spec.CacheName, corpus.Version, capacity, corpus.Stack(spec.CacheAwareGroups...))
}

// HotPermille is the share of methods the JIT compiles as hot in steady
// state (the paper's WAS processes sit near 2 % of methods compiled). The
// deploy-time JITWarm and the jitshare archive layout must agree on it, or
// processes would compile methods the archive never laid out.
const HotPermille = 20

// jitArchiveBytes is the unscaled shared-code-archive capacity. Sized so the
// hot sets of the Table III workloads fit with a small realistic overflow.
const jitArchiveBytes = int64(64) << 20

// BuildJITArchive lays out the shared code archive for a workload: the
// canonical (unshuffled) class stack over every group the workload loads,
// hot methods at the same permille JITWarm compiles. Like the class cache,
// the layout derives only from the corpus — never from any process's load
// order — so every JVM agrees on which method body lives at which page.
func BuildJITArchive(corpus *classlib.Corpus, spec Spec, scale, pageSize int) *jitshare.Archive {
	capacity := jitArchiveBytes / int64(scale)
	if capacity < 128<<10 {
		capacity = 128 << 10
	}
	groups := append(append([]classlib.Group(nil), spec.CacheAwareGroups...), spec.PrivateGroups...)
	return jitshare.Build(spec.CacheName+"-code", corpus.Version, capacity, pageSize,
		corpus.Stack(groups...), HotPermille)
}

// Deploy starts the workload in a guest: installs and scans the JARs,
// launches the JVM (attaching the shared cache when configured), loads the
// class stack and warms the JIT — the paper's "first three minutes after
// starting up WAS and initializing by accessing the scenario page".
func Deploy(k *guestos.Kernel, corpus *classlib.Corpus, spec Spec, cfg DeployConfig) *Instance {
	if cfg.Scale < 1 {
		panic(fmt.Sprintf("workload: scale %d", cfg.Scale))
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	InstallJars(k, corpus, spec)
	// WAS scans every archive at startup (annotation and module scanning),
	// warming the page cache whether or not classes later come from the
	// shared cache.
	for _, g := range spec.CacheAwareGroups {
		k.ReadFileAll(JarPath(g))
	}
	for _, g := range spec.PrivateGroups {
		k.ReadFileAll(JarPath(g))
	}

	opts := jvm.Options{
		GCPolicy:     spec.GCPolicy,
		HeapBytes:    spec.HeapBytes / int64(cfg.Scale),
		NurseryBytes: spec.NurseryBytes / int64(cfg.Scale),
		TenuredBytes: spec.TenuredBytes / int64(cfg.Scale),
		CacheImage:   cfg.CacheImage,
		JITArchive:   cfg.JITArchive,
		Threads:      spec.ClientThreads,
	}
	if cfg.CacheImage != nil {
		// Guard the copy-the-file step: the guest's file must be this
		// cache's serialization.
		if f, ok := k.FS().Lookup(jvm.CachePath); ok && f.Data != nil {
			if err := cfg.CacheImage.VerifyFile(f.Data); err != nil {
				panic(err)
			}
		}
	}

	procName := "java-" + spec.Middleware
	j := jvm.Launch(k, procName, corpus, opts, SizesFor(spec, cfg.Scale))
	j.LoadGroups(true, spec.CacheAwareGroups...)
	if len(spec.PrivateGroups) > 0 {
		j.LoadGroups(false, spec.PrivateGroups...)
	}
	j.JITWarm(HotPermille) // ≈2 % of methods hot in steady state

	logPath := fmt.Sprintf("/opt/middleware/logs/%s-pid%d/SystemOut.log", spec.Middleware, j.Process().PID)
	k.FS().Install(&guestos.File{Path: logPath, SizeBytes: 0, ContentSeed: j.Process().Seed()})
	sessionCap := spec.SessionCap * warmupCalibScale / cfg.Scale
	if sessionCap < 20 {
		sessionCap = 20
	}
	in := &Instance{
		Spec:       spec,
		JVM:        j,
		kernel:     k,
		cfg:        cfg,
		logPath:    logPath,
		sessionCap: sessionCap,
		rng:        mem.Combine(j.Process().Seed(), mem.HashString("driver")),
	}
	// Scenario initialization: drive the app until the heap reaches its
	// steady-state high-water mark.
	if !cfg.DeferWarmup {
		in.Warmup()
	}
	return in
}

// warmupCalibScale is the memory scale WarmupRequests is calibrated at.
// Request working sets are paper-sized at every scale, so a heap that is
// scale× smaller reaches its steady-state high-water mark in scale× fewer
// requests; Warmup compensates so steady state is reached at any scale.
const warmupCalibScale = 16

// WarmupTarget reports the scale-adjusted scenario-initialization request
// count.
func (in *Instance) WarmupTarget() int {
	n := in.Spec.WarmupRequests * warmupCalibScale / in.cfg.Scale
	if n < 40 {
		n = 40
	}
	return n
}

// Warmup serves the scenario-initialization requests (deferred mode).
func (in *Instance) Warmup() {
	in.RunSteadyState(in.WarmupTarget())
}

// pickOperation draws a request type from the spec's weighted mix.
func (in *Instance) pickOperation() *Operation {
	if len(in.Spec.Mix) == 0 {
		return nil
	}
	total := 0
	for i := range in.Spec.Mix {
		total += in.Spec.Mix[i].Weight
	}
	in.rng = mem.Mix(in.rng)
	pick := int(uint64(in.rng) % uint64(total))
	for i := range in.Spec.Mix {
		pick -= in.Spec.Mix[i].Weight
		if pick < 0 {
			return &in.Spec.Mix[i]
		}
	}
	return &in.Spec.Mix[len(in.Spec.Mix)-1]
}

// Iterate executes one request batch: the per-request memory behaviour of
// the benchmark against this instance.
func (in *Instance) Iterate() {
	in.step++
	in.stats.Requests++
	h := in.JVM.Heap()

	op := in.pickOperation()
	allocs, meanSize, nioBytes := in.Spec.RequestAllocs, in.Spec.RequestAllocBytes, in.Spec.NIOBytesPerReq
	sessionOp := false
	if op != nil {
		if in.stats.PerOp == nil {
			in.stats.PerOp = make(map[string]uint64)
		}
		in.stats.PerOp[op.Name]++
		allocs = int(float64(allocs)*op.AllocFactor + 0.5)
		meanSize = int(float64(meanSize)*op.SizeFactor + 0.5)
		nioBytes = int(float64(nioBytes)*op.NIOFactor + 0.5)
		sessionOp = op.Session
	}

	// Transaction working set: mostly short-lived objects.
	for i := 0; i < allocs; i++ {
		in.rng = mem.Mix(in.rng)
		size := meanSize/2 + int(uint64(in.rng)%uint64(meanSize))
		h.Alloc(size, in.rng, false)
		in.stats.BytesAlloced += int64(size)
	}

	// Session state: long-lived, capped, oldest released (models HTTP
	// session expiry and entity caches). Session-bearing operations and the
	// periodic fallback both create it.
	if sessionOp || (in.Spec.SessionEvery > 0 && in.step%in.Spec.SessionEvery == 0) {
		in.rng = mem.Mix(in.rng)
		o := h.Alloc(in.Spec.SessionBytes, in.rng, true)
		in.sessions = append(in.sessions, o)
		if len(in.sessions) > in.sessionCap {
			h.Release(in.sessions[0])
			in.sessions = in.sessions[1:]
		}
		// Monitor operations on live session objects dirty their headers.
		h.Mutate(in.sessions[len(in.sessions)/2])
	}

	// Wire traffic: the same benchmark sends the same bytes in every VM.
	if nioBytes > 0 {
		in.JVM.Work().NIOTransfer(in.Spec.Name, in.step, nioBytes, in.cfg.PerVMNIOSalt)
	}

	// Native-side churn: parsing buffers, JNI handles.
	if in.step%8 == 0 {
		in.JVM.Work().Malloc(2048 + int(uint64(in.rng)%4096))
	}

	// Executing the request reads class metadata and compiled code and
	// touches the runtime's native tables: the whole JVM working set is hot
	// in steady state, which is what makes over-commitment expensive.
	in.JVM.TouchMetadata(in.step, 24)
	in.JVM.TouchJITCode(in.step, 8)
	in.JVM.Work().TouchNative(in.step, 32<<10)

	// Thread stacks stay hot.
	in.JVM.StackChurn(in.step)

	// Occasional late class loading (reflection proxies, lazy servlets).
	if in.step%97 == 0 {
		in.lazyLoad()
	}

	// The server logs continuously: dirty, per-VM page cache that no TPS
	// can ever merge (and which keeps the guest kernel area realistic).
	if in.step%16 == 0 {
		in.kernel.AppendFile(in.logPath, 512+int(uint64(in.rng)%1024), in.JVM.Process().Seed())
	}
}

// lazyLoad loads one not-yet-loaded class from the app groups, if any.
func (in *Instance) lazyLoad() {
	in.stats.LazyClasses++
	// All groups were loaded at deploy; model the late work as metadata
	// resolution instead: a RAM-side native allocation.
	in.JVM.Work().Malloc(4096)
}

// RunSteadyState executes n request batches back to back (the driver's
// think time is folded into the experiment clock by the caller).
func (in *Instance) RunSteadyState(n int) {
	for i := 0; i < n; i++ {
		in.Iterate()
	}
}

// Stats returns driver counters.
func (in *Instance) Stats() InstanceStats { return in.stats }

// Kernel returns the guest kernel this instance runs on.
func (in *Instance) Kernel() *guestos.Kernel { return in.kernel }

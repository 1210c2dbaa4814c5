// Package core orchestrates the paper's experiments: it assembles a KVM-like
// host with guest VMs built from a common base image, deploys the Table III
// workloads, runs the KSM scanner with the paper's §2.C tuning (10 000
// pages per 100 ms while warming up, 1 000 afterwards), drives steady-state
// load, and measures — reproducing every figure and table of the evaluation.
package core

import (
	"fmt"

	"repro/internal/cds"
	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/jitshare"
	"repro/internal/jvm"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memanalysis"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/thp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultScale is the memory scale of the experiments: guest and host sizes
// divide by it, class counts divide by it, and all reported numbers are
// multiplied back into paper units. See DESIGN.md ("Scale factor").
const DefaultScale = 16

// Intel-platform constants from Tables I and II.
const (
	// HostRAMBytes is the BladeCenter LS21's 6 GB.
	HostRAMBytes = int64(6) << 30
	// HostKernelReserveBytes approximates everything on the host that is
	// not guest memory: the host kernel (a *debug* build in Table I, which
	// is memory-hungry), QEMU/KVM per-process overhead beyond the modelled
	// device state, page tables, and KSM metadata. Calibrated so that the
	// Fig. 7 cliff falls between 7 and 8 DayTrader guests, as measured.
	HostKernelReserveBytes = int64(1280) << 20
	// GuestKernelVersion labels the RHEL 5.5 guest kernel build.
	GuestKernelVersion = "2.6.18-194.3.1.el5debug"
)

// GuestKernelSizing is the unscaled guest kernel memory (calibrated so the
// Fig. 2 guest-kernel bars land near the paper's 219 MB with ≈50 % shared).
type GuestKernelSizing struct {
	TextBytes int64
	DataBytes int64
	SlabBytes int64
}

// DefaultGuestKernel returns the calibrated guest kernel sizing.
func DefaultGuestKernel() GuestKernelSizing {
	return GuestKernelSizing{
		TextBytes: 16 << 20,
		DataBytes: 30 << 20,
		SlabBytes: 50 << 20,
	}
}

// Knobs are the subsystem switches every cluster of an experiment shares:
// each is one tpsim flag, declared here once and embedded in both Options and
// ClusterConfig, so Options.clusterConfig carries all of them in one struct
// copy. The zero value of every knob keeps the paper figures byte-identical.
type Knobs struct {
	// THPPolicy enables the transparent-huge-page collapse daemon (tpsim
	// -thp). Under madvise or always, khugepaged-style collapse competes
	// with KSM for dense guest-RAM runs.
	THPPolicy thp.Policy
	// THPKSMSplit lets KSM split huge mappings back to base pages when it
	// verifies duplicate content (tpsim -thp-ksm-split) — the
	// sharing-recovery side of the THP-vs-KSM tradeoff. Meaningless under
	// thp.PolicyFHPM, which carries its own per-subpage splitting
	// (ksm.Config.PartialSplitHuge); Options.Validate rejects the pair.
	THPKSMSplit bool
	// THPMaxPtesNone overrides khugepaged's max_ptes_none collapse budget
	// (tpsim -thp-max-ptes-none, 0 = the thp package default of 64). Under
	// FHPM it also bounds how many absent carved subpages a re-absorption
	// may zero-fill.
	THPMaxPtesNone int
	// TLBEntries overrides the modeled TLB size used by the analyzer's
	// TLB-reach estimate (tpsim -tlb-entries, 0 = memanalysis.TLBEntries).
	TLBEntries int
	// IncrementalScan turns on the host's PML-style dirty-page rings and
	// switches the KSM scanner to dirty-ring driven incremental rescans once
	// warm-up converges (tpsim -incremental). The working-set estimates the
	// drains produce also steer the balloon manager and the OOM killer
	// toward cold guests.
	IncrementalScan bool
	// JITShare attaches a ShareJIT-style shared code archive to every JVM
	// (tpsim -jitshare, internal/jitshare): tier-1 JIT output becomes
	// position-independent bodies at canonical page-aligned offsets,
	// identical across guests, so KSM merges the code area the paper found
	// unshareable; per-process profile stubs split into their own category,
	// and tier-2 re-JITs invalidate canonical slots so the sharing decays
	// under warming.
	JITShare bool
	// KSMShards partitions the scanner's merge state by checksum bucket and
	// scans batches on a worker pool (tpsim -ksm-shards, ksm.Config.Shards).
	// Results are byte-identical at every shard count — only scan-pass wall
	// time changes — so 0/1 (single-threaded) and N>1 produce the same
	// figures.
	KSMShards int
}

// ClusterConfig describes one KVM experiment run.
type ClusterConfig struct {
	// Scale divides all byte quantities and class counts (0 = DefaultScale).
	Scale int
	// HostRAMBytes is unscaled host memory (0 = the Table I 6 GB).
	HostRAMBytes int64
	// Specs lists the workload per VM; a single entry is replicated across
	// NumVMs guests.
	Specs  []workload.Spec
	NumVMs int
	// JVMsPerGuest runs several WAS processes inside each guest (default 1).
	// All JVMs in a guest attach the same local cache file, so their
	// ROMClass pages are shared *within* the guest through the page cache —
	// the original purpose of the class-sharing feature (§4.B) — while KSM
	// additionally shares them *across* guests.
	JVMsPerGuest int
	// SharedClasses enables the paper's §4 technique on every guest.
	SharedClasses bool
	// PerVMNIOSalt de-identifies wire traffic per VM (real-world traffic
	// instead of identical benchmark drivers).
	PerVMNIOSalt bool
	// DisableKSM leaves the scanner off: the memory state stays unmerged
	// (used by the related-work baselines to analyze the raw state).
	DisableKSM bool
	// Knobs are the subsystem switches (THP, incremental scan, ShareJIT,
	// scanner shards, modeled TLB size).
	Knobs
	// SharedAOT additionally populates and uses the cache's AOT section
	// (extension; implies SharedClasses behaviour for code).
	SharedAOT bool
	// PerVMCacheLayout is the §5 ablation of the paper's key insight: each
	// guest populates its OWN cache in its own load order instead of
	// receiving one copied file. The caches hold identical classes with
	// different layouts, so cross-VM page identity — and the class-metadata
	// sharing — collapses.
	PerVMCacheLayout bool
	// BaseSeed perturbs every per-VM and per-process seed; experiments with
	// error bars run several base seeds.
	BaseSeed mem.Seed
	// GuestKernel overrides the kernel sizing (zero value = default).
	GuestKernel GuestKernelSizing

	// WarmupPasses is the number of full KSM passes at the fast scan rate
	// (the paper's first ≈3 minutes at 10 000 pages per wake-up).
	WarmupPasses int
	// SteadyRounds is the number of steady-state rounds; each round runs
	// IterationsPerRound requests on every instance and advances the clock
	// by RoundDuration while KSM scans at 1 000 pages per wake-up.
	SteadyRounds       int
	IterationsPerRound int
	// RoundDuration is the virtual time per steady round (0 = 1 s).
	RoundDuration simclock.Time
	// EnableTrace records a timeline of experiment events (Cluster.Trace).
	EnableTrace bool

	// EnableMetrics attaches a telemetry registry (Cluster.Metrics) sampling
	// KSM, physical-memory, JVM and swap gauges on a virtual-time cadence.
	// Every probe is read-only, so results are identical with it on or off.
	EnableMetrics bool
	// MetricsInterval is the sampling cadence (0 = metrics.DefaultInterval).
	MetricsInterval simclock.Time
	// MetricsCapacity bounds each series ring (0 = metrics.DefaultCapacity).
	MetricsCapacity int
	// AdaptiveWarmup replaces the fixed warm-up duration with the
	// convergence detector: after the warm-up traffic, the scanner keeps
	// running at the fast rate only until the merged-pages series flattens
	// (capped at twice the fixed duration). Implies EnableMetrics.
	AdaptiveWarmup bool
}

// withDefaults fills zero fields.
func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.Scale == 0 {
		cfg.Scale = DefaultScale
	}
	if cfg.HostRAMBytes == 0 {
		cfg.HostRAMBytes = HostRAMBytes
	}
	if cfg.NumVMs == 0 {
		cfg.NumVMs = len(cfg.Specs)
	}
	if cfg.JVMsPerGuest == 0 {
		cfg.JVMsPerGuest = 1
	}
	if cfg.GuestKernel == (GuestKernelSizing{}) {
		cfg.GuestKernel = DefaultGuestKernel()
	}
	if cfg.WarmupPasses == 0 {
		cfg.WarmupPasses = 4
	}
	if cfg.SteadyRounds == 0 {
		cfg.SteadyRounds = 60
	}
	if cfg.IterationsPerRound == 0 {
		cfg.IterationsPerRound = 6
	}
	if cfg.RoundDuration == 0 {
		cfg.RoundDuration = simclock.Second
	}
	if cfg.AdaptiveWarmup {
		cfg.EnableMetrics = true
	}
	return cfg
}

// CachePath is where the pre-populated shared class cache file lives in
// every guest image built with the technique enabled.
const CachePath = "/opt/middleware/javasharedresources/classCache"

// Cluster is a running experiment.
type Cluster struct {
	Cfg     ClusterConfig
	Clock   *simclock.Clock
	Host    *hypervisor.Host
	Corpus  *classlib.Corpus
	Kernels []*guestos.Kernel
	Workers []*workload.Instance
	Scanner *ksm.KSM
	// THP is the huge-page collapse daemon (nil unless THPPolicy is madvise
	// or always; the thp API is nil-safe).
	THP *thp.Daemon
	// Trace is the experiment timeline (nil unless EnableTrace).
	Trace *trace.Log
	// Metrics is the telemetry registry (nil unless EnableMetrics). All the
	// metrics API is nil-safe, so callers never branch on it.
	Metrics *metrics.Registry

	images      map[string]*cds.Image
	jitArchives map[string]*jitshare.Archive
	warmupEnded simclock.Time

	// guests tracks per-slot lifecycle state for the chaos experiments. With
	// fault injection unused the slots are write-only bookkeeping and the
	// cluster behaves exactly as before.
	guests []*guestSlot
}

// guestSlot is one guest position in the cluster: the workload it runs and,
// while alive, the VM process, kernel and worker instances backing it.
type guestSlot struct {
	spec    workload.Spec
	gen     int // restart generation (0 = original boot)
	alive   bool
	vm      *hypervisor.VMProcess
	kernel  *guestos.Kernel
	workers []*workload.Instance
}

// BuildCluster assembles the host, guests and workloads but does not run
// the scanner or steady state yet.
func BuildCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	if len(cfg.Specs) == 0 {
		panic("core: no workload specs")
	}
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{
		Name:               "BladeCenter-LS21",
		RAMBytes:           cfg.HostRAMBytes / int64(cfg.Scale),
		KernelReserveBytes: HostKernelReserveBytes / int64(cfg.Scale),
		// FHPM needs the dirty rings too: its demote/promote decisions run on
		// the per-subpage heat the ring drains feed.
		DirtyLog: cfg.IncrementalScan || cfg.THPPolicy == thp.PolicyFHPM,
	}, clock)
	c := &Cluster{
		Cfg:         cfg,
		Clock:       clock,
		Host:        host,
		Corpus:      classlib.NewCorpus(jvm.RuntimeVersion, cfg.Scale),
		images:      make(map[string]*cds.Image),
		jitArchives: make(map[string]*jitshare.Archive),
	}
	if cfg.EnableTrace {
		c.Trace = trace.New(clock, 0)
	}
	// The scanner runs from the start at the paper's warm-up rate (10 000
	// pages per 100 ms wake-up): guests deploy while KSM merges, exactly as
	// in §2.C where KSM is enabled during WAS startup.
	kcfg := ksm.DefaultConfig()
	kcfg.PagesToScan = 10000
	kcfg.SplitHugePages = cfg.THPKSMSplit
	// Under FHPM, KSM carves just the duplicate-bearing subpage instead of
	// dissolving the whole block (takes precedence over SplitHugePages).
	kcfg.PartialSplitHuge = cfg.THPPolicy == thp.PolicyFHPM
	kcfg.IncrementalScan = cfg.IncrementalScan
	kcfg.Shards = cfg.KSMShards
	c.Scanner = ksm.New(host, kcfg)
	if !cfg.DisableKSM {
		c.Scanner.Start()
	}
	if cfg.THPPolicy != thp.PolicyNever {
		tcfg := thp.DefaultConfig()
		tcfg.Policy = cfg.THPPolicy
		if cfg.THPMaxPtesNone > 0 {
			tcfg.MaxPtesNone = cfg.THPMaxPtesNone
		}
		c.THP = thp.New(host, tcfg)
		c.THP.Start()
	}
	if cfg.EnableMetrics {
		c.Metrics = metrics.New(clock, metrics.Config{
			Interval: cfg.MetricsInterval,
			Capacity: cfg.MetricsCapacity,
		})
		c.instrument()
		// Started before the first guest boots so the series cover the
		// provisioning ramp, not just warm-up and steady state.
		c.Metrics.Start()
	}
	for i := 0; i < cfg.NumVMs; i++ {
		spec := cfg.Specs[i%len(cfg.Specs)]
		c.addGuest(i, spec)
		c.Scanner.Register(c.Host.VMs()[i])
		// QEMU madvises all guest RAM as MADV_HUGEPAGE, so under the madvise
		// policy guest memory is still an explicit collapse candidate.
		c.THP.Register(c.Host.VMs()[i], true)
		c.Trace.Emit(trace.KindDeploy, fmt.Sprintf("VM %d", i+1),
			"deployed %s (shared classes: %v); host free %d MB",
			spec.Name, cfg.SharedClasses, host.FreeBytes()>>20)
		// Let the scanner absorb this guest's startup before the next one
		// boots (sequential provisioning).
		clock.RunFor(simclock.Time(c.totalGuestPages()/10000+1) * 100 * simclock.Millisecond)
	}
	return c
}

// addGuest boots one guest from the base image and deploys its workload.
func (c *Cluster) addGuest(i int, spec workload.Spec) {
	slot := &guestSlot{spec: spec}
	c.guests = append(c.guests, slot)
	c.bootGuest(i, slot)
}

// bootGuest (re)boots a guest slot: a fresh VM process, guest kernel and
// worker set. Generation 0 is the original provisioning path; restarts
// derive a fresh layout seed from the generation, exactly as a rebooted
// machine re-randomizes.
func (c *Cluster) bootGuest(i int, slot *guestSlot) {
	cfg := c.Cfg
	spec := slot.spec
	vmSeed := mem.Combine(cfg.BaseSeed, mem.HashString("vm"), mem.Seed(i+1))
	if slot.gen > 0 {
		vmSeed = mem.Combine(vmSeed, mem.HashString("restart"), mem.Seed(slot.gen))
	}
	var vmp *hypervisor.VMProcess
	if slot.gen > 0 {
		vmp = c.Host.RestartVM(slot.vm, vmSeed)
	} else {
		vmp = c.Host.NewVM(hypervisor.VMConfig{
			Name:          fmt.Sprintf("VM %d", i+1),
			GuestMemBytes: spec.GuestMemBytes / int64(cfg.Scale),
			OverheadBytes: (24 << 20) / int64(cfg.Scale),
			Seed:          vmSeed,
		})
	}
	k := guestos.Boot(vmp, guestos.KernelConfig{
		Version:   GuestKernelVersion,
		TextBytes: cfg.GuestKernel.TextBytes / int64(cfg.Scale),
		DataBytes: cfg.GuestKernel.DataBytes / int64(cfg.Scale),
		SlabBytes: cfg.GuestKernel.SlabBytes / int64(cfg.Scale),
	})
	c.spawnDaemons(k)

	dcfg := workload.DeployConfig{Scale: cfg.Scale, DeferWarmup: true}
	if cfg.SharedClasses {
		img := c.cacheImage(spec)
		if cfg.PerVMCacheLayout {
			// Ablation: this guest ran its own cold population instead of
			// receiving the base image's file.
			order := classlib.ShuffleWindows(c.Corpus.Stack(spec.CacheAwareGroups...), vmSeed, 48)
			img = cds.Build(spec.CacheName, c.Corpus.Version, spec.CacheBytes/int64(cfg.Scale), order)
		}
		k.FS().Install(&guestos.File{Path: CachePath, Data: img.FileBytes(c.Corpus)})
		dcfg.SharedClasses = true
		dcfg.SharedAOT = cfg.SharedAOT
		dcfg.CacheImage = img
		dcfg.CachePath = CachePath
	}
	if cfg.JITShare {
		dcfg.JITShare = true
		dcfg.JITArchive = c.jitArchive(spec)
	}
	if cfg.PerVMNIOSalt {
		dcfg.PerVMNIOSalt = mem.Combine(vmSeed, mem.HashString("nio-salt"))
	}
	c.Kernels = append(c.Kernels, k)
	slot.vm = vmp
	slot.kernel = k
	slot.workers = slot.workers[:0]
	slot.alive = true
	for n := 0; n < cfg.JVMsPerGuest; n++ {
		w := workload.Deploy(k, c.Corpus, spec, dcfg)
		c.Workers = append(c.Workers, w)
		slot.workers = append(slot.workers, w)
	}
}

// GuestSlots reports the number of guest positions (alive or dead).
func (c *Cluster) GuestSlots() int { return len(c.guests) }

// GuestAlive reports whether slot i's guest is currently running.
func (c *Cluster) GuestAlive(i int) bool { return c.guests[i].alive }

// GuestVM returns slot i's VM process (the dead one after a kill, until the
// slot restarts).
func (c *Cluster) GuestVM(i int) *hypervisor.VMProcess { return c.guests[i].vm }

// GuestKernel returns slot i's guest kernel, or nil if the slot is dead.
// Callers that must detach a guest from host-side daemons (balloon managers)
// before tearing its pages down fetch the kernel through this while the
// guest is still alive.
func (c *Cluster) GuestKernel(i int) *guestos.Kernel { return c.guests[i].kernel }

// KillGuest tears down slot i's guest end to end: the scanner and THP daemon
// drop its regions, the hypervisor reclaims every frame and swap slot, and
// the kernel and workers leave the cluster's index-parallel lists (keeping
// Kernels aligned with Host.VMs for the analyzer). It returns the killed
// guest's kernel so callers can detach it elsewhere (balloon managers), or
// nil if the slot was already dead.
func (c *Cluster) KillGuest(i int) *guestos.Kernel {
	slot := c.guests[i]
	if !slot.alive {
		return nil
	}
	c.Scanner.Unregister(slot.vm)
	c.THP.Unregister(slot.vm)
	c.Host.KillVM(slot.vm)
	for ki, k := range c.Kernels {
		if k == slot.kernel {
			c.Kernels = append(c.Kernels[:ki], c.Kernels[ki+1:]...)
			break
		}
	}
	kept := c.Workers[:0]
	for _, w := range c.Workers {
		dead := false
		for _, sw := range slot.workers {
			if w == sw {
				dead = true
				break
			}
		}
		if !dead {
			kept = append(kept, w)
		}
	}
	c.Workers = kept
	killed := slot.kernel
	slot.alive = false
	slot.kernel = nil
	slot.workers = nil
	c.Trace.Emit(trace.KindDeploy, fmt.Sprintf("VM %d", i+1), "killed; host free %d MB",
		c.Host.FreeBytes()>>20)
	return killed
}

// RestartGuest reboots a killed slot: a fresh VM process with a fresh layout
// seed, a cold guest kernel, and newly deployed workers, registered with the
// scanner and THP daemon like any provisioned guest. It returns the new
// kernel, or nil if the slot is still alive.
func (c *Cluster) RestartGuest(i int) *guestos.Kernel {
	slot := c.guests[i]
	if slot.alive {
		return nil
	}
	slot.gen++
	c.bootGuest(i, slot)
	c.Scanner.Register(slot.vm)
	c.THP.Register(slot.vm, true)
	c.Trace.Emit(trace.KindDeploy, fmt.Sprintf("VM %d", i+1),
		"restarted (gen %d); host free %d MB", slot.gen, c.Host.FreeBytes()>>20)
	return slot.kernel
}

// CheckLeaks runs the hypervisor's leak invariant with the scanner's stable
// tree accounted as external references. Nil means every frame refcount and
// swap slot is exactly explained by live state.
func (c *Cluster) CheckLeaks() error {
	return c.Host.CheckLeaks(c.Scanner.StableFrames())
}

// cacheImage returns the cold-run cache for a workload, built once per
// cache name and reused for every guest — the "copy the file to all of the
// VMs" step of §4.B.
func (c *Cluster) cacheImage(spec workload.Spec) *cds.Image {
	if img, ok := c.images[spec.CacheName]; ok {
		return img
	}
	var img *cds.Image
	if c.Cfg.SharedAOT {
		img = workload.BuildCacheAOT(c.Corpus, spec, c.Cfg.Scale, 20)
	} else {
		img = workload.BuildCache(c.Corpus, spec, c.Cfg.Scale)
	}
	c.images[spec.CacheName] = img
	return img
}

// jitArchive returns the shared code archive for a workload, laid out once
// per cache name and handed to every JVM — the canonical layout is the
// coordination point that makes their PIC pages byte-identical.
func (c *Cluster) jitArchive(spec workload.Spec) *jitshare.Archive {
	name := spec.CacheName + "-code"
	if a, ok := c.jitArchives[name]; ok {
		return a
	}
	a := workload.BuildJITArchive(c.Corpus, spec, c.Cfg.Scale, c.Host.PageSize())
	c.jitArchives[name] = a
	return a
}

// JITShareCensus runs the jitshare sharing census over every live worker's
// archive mapping (zero counts when the mode is off).
func (c *Cluster) JITShareCensus() jitshare.Counts {
	var areas []jitshare.Area
	for _, w := range c.Workers {
		if a, ok := w.JVM.JIT().ShareArea(); ok {
			areas = append(areas, a)
		}
	}
	return jitshare.Census(c.Host, areas)
}

// spawnDaemons creates the guest's small native processes ("other user
// processes" in Fig. 2): identical binaries from the base image plus small
// per-process anonymous state.
func (c *Cluster) spawnDaemons(k *guestos.Kernel) {
	ps := int64(k.PageSize())
	for _, name := range []string{"init", "sshd", "syslogd"} {
		binPath := "/sbin/" + name
		f, ok := k.FS().Lookup(binPath)
		if !ok {
			size := (3 << 20) / int64(c.Cfg.Scale)
			if size < ps {
				size = ps
			}
			f = k.FS().InstallGenerated(binPath, "rhel5.5", size)
		}
		p := k.Spawn(name, false)
		v := p.MapFile(f, 0, 0, "daemon-code", binPath)
		p.TouchAll(v, false)
		anonPages := int(((2 << 20) / int64(c.Cfg.Scale)) / ps)
		if anonPages < 1 {
			anonPages = 1
		}
		av := p.MapAnon(anonPages, "daemon-anon", name+"-heap")
		for vpn := av.Start; vpn < av.End; vpn++ {
			p.FillPage(vpn, mem.Combine(p.Seed(), mem.Seed(vpn)))
		}
	}
}

// totalGuestPages sums every guest's memory for pass sizing.
func (c *Cluster) totalGuestPages() int {
	total := 0
	for _, vm := range c.Host.VMs() {
		total += vm.GuestPages()
	}
	return total
}

// instrument registers the cluster's gauges on the metrics registry. All
// probes are read-only views of simulation state; none may mutate it, which
// is what keeps a metrics-on run bit-identical to a metrics-off run.
func (c *Cluster) instrument() {
	r := c.Metrics
	pm := c.Host.Phys()
	r.Gauge("mem.frames_in_use", func() float64 { return float64(pm.FramesInUse()) })
	r.Gauge("mem.frames_free", func() float64 { return float64(pm.FreeFrames()) })
	r.Gauge("mem.frames_ksm", func() float64 { return float64(pm.KSMFrames()) })
	r.Gauge("mem.frames_zero", func() float64 { return float64(pm.ZeroFrames()) })
	r.Gauge("host.free_bytes", func() float64 { return float64(c.Host.FreeBytes()) })
	r.Gauge("host.swap_used_bytes", func() float64 { return float64(c.Host.SwapUsedBytes()) })
	r.Gauge("host.major_faults", func() float64 { return float64(c.Host.Stats().MajorFaults) })
	r.Gauge("host.swap_outs", func() float64 { return float64(c.Host.Stats().SwapOuts) })
	r.Gauge("host.cow_breaks", func() float64 { return float64(c.Host.Stats().COWBreaks) })
	r.Gauge("mem.frames_huge", func() float64 { return float64(pm.HugeFrames()) })
	c.Scanner.Instrument(r)
	c.THP.Instrument(r)
	// JVM gauges aggregate over c.Workers through the closure, so instances
	// deployed after Start are picked up by the next sample automatically.
	r.Gauge("jvm.heap_used_bytes", func() float64 {
		var total int64
		for _, w := range c.Workers {
			total += w.JVM.Heap().UsedBytes()
		}
		return float64(total)
	})
	r.Gauge("jvm.heap_capacity_bytes", func() float64 {
		var total int64
		for _, w := range c.Workers {
			total += w.JVM.Heap().CapacityBytes()
		}
		return float64(total)
	})
	r.Gauge("jvm.minor_gcs", func() float64 {
		var total uint64
		for _, w := range c.Workers {
			total += w.JVM.Heap().Stats().MinorGCs
		}
		return float64(total)
	})
	r.Gauge("jvm.major_gcs", func() float64 {
		var total uint64
		for _, w := range c.Workers {
			total += w.JVM.Heap().Stats().MajorGCs
		}
		return float64(total)
	})
	r.Gauge("jvm.classes_loaded", func() float64 {
		total := 0
		for _, w := range c.Workers {
			total += w.JVM.LoadStats().ClassesLoaded
		}
		return float64(total)
	})
	r.Gauge("jvm.live_objects", func() float64 {
		total := 0
		for _, w := range c.Workers {
			total += w.JVM.Heap().LiveObjects()
		}
		return float64(total)
	})
	if c.Cfg.JITShare {
		// Code-area sharing gauges: archive pages that are merge candidates,
		// those KSM actually merged, and those whose sharing was permanently
		// lost to a re-JIT's COW break. The census is a read-only page walk,
		// cached per sample instant since the gauges share it.
		var censusAt simclock.Time = -1
		var censusVal jitshare.Counts
		census := func() jitshare.Counts {
			if now := c.Clock.Now(); now != censusAt {
				censusVal = c.JITShareCensus()
				censusAt = now
			}
			return censusVal
		}
		r.Gauge("jitshare.code_pages_shareable", func() float64 { return float64(census().Shareable) })
		r.Gauge("jitshare.code_pages_merged", func() float64 { return float64(census().Merged) })
		r.Gauge("jitshare.code_pages_cow_broken", func() float64 {
			total := 0
			for _, w := range c.Workers {
				total += w.JVM.JIT().Stats().CanonicalPagesInvalidated
			}
			return float64(total)
		})
		r.Gauge("jitshare.rejits", func() float64 {
			total := 0
			for _, w := range c.Workers {
				total += w.JVM.JIT().Stats().ReJITs
			}
			return float64(total)
		})
	}
}

// WaitConverged drives the clock forward, one sample interval at a time,
// until the cumulative merged-pages series flattens per cc or maxWait
// virtual time elapses. It returns the retrospective convergence point (the
// start of the earliest flat window over the whole series) and whether one
// was found. Requires EnableMetrics.
func (c *Cluster) WaitConverged(cc metrics.ConvergenceConfig, maxWait simclock.Time) (simclock.Time, bool) {
	if c.Metrics == nil {
		panic("core: WaitConverged requires ClusterConfig.EnableMetrics")
	}
	s := c.Metrics.Get("ksm.pages_merged")
	deadline := c.Clock.Now() + maxWait
	for !cc.Steady(s) && c.Clock.Now() < deadline {
		c.Clock.RunFor(c.Metrics.Interval())
	}
	return cc.ConvergedAt(s)
}

// WarmupEnded reports the virtual time at which RunWarmup returned (zero
// before warm-up completes).
func (c *Cluster) WarmupEnded() simclock.Time { return c.warmupEnded }

// RunWarmup runs the paper's warm-up phase: scenario initialization traffic
// on every guest, interleaved with KSM at the fast 10 000 pages/100 ms
// setting, until the configured number of full passes completes; then the
// scanner drops to the steady 1 000 pages per wake-up.
func (c *Cluster) RunWarmup() {
	c.Trace.Emit(trace.KindPhase, "cluster", "warm-up begins (scanner at 10000 pages/100ms)")
	wakeupsPerPass := c.totalGuestPages()/10000 + 1
	slices := c.Cfg.WarmupPasses * 2
	fixedSlice := simclock.Time(wakeupsPerPass*c.Cfg.WarmupPasses/slices+1) * 100 * simclock.Millisecond
	for s := 0; s < slices; s++ {
		for _, w := range c.Workers {
			n := w.WarmupTarget() / slices
			if n < 1 {
				n = 1
			}
			w.RunSteadyState(n)
		}
		if c.Cfg.AdaptiveWarmup {
			// Just long enough for the scanner to absorb the traffic slice;
			// the convergence detector supplies the rest of the duration.
			c.Clock.RunFor(100 * simclock.Millisecond)
		} else {
			c.Clock.RunFor(fixedSlice)
		}
	}
	if c.Cfg.AdaptiveWarmup {
		// Keep fast-scanning until the merged-pages series flattens, capped
		// at twice the fixed warm-up so a non-converging run still ends.
		maxWait := 2 * fixedSlice * simclock.Time(slices)
		if at, ok := c.WaitConverged(metrics.ConvergenceConfig{}, maxWait); ok {
			c.Trace.Emit(trace.KindScanner, "ksm",
				"merged-pages series converged at %.1fs", at.Seconds())
		} else {
			c.Trace.Emit(trace.KindScanner, "ksm",
				"merged-pages series did not converge within %.1fs cap", maxWait.Seconds())
		}
	}
	c.Scanner.SetPagesToScan(1000)
	c.warmupEnded = c.Clock.Now()
	st := c.Scanner.Stats()
	c.Trace.Emit(trace.KindScanner, "ksm",
		"warm-up done: %d full scans, %d MB saved, CPU %.1f%%; dropping to 1000 pages/100ms",
		st.FullScans, st.SavedBytes>>20, st.CPUPercent())
}

// RunSteady drives the measurement phase: each round every instance serves
// IterationsPerRound requests and the clock advances by RoundDuration while
// KSM scans at the steady 1 000 pages per wake-up.
func (c *Cluster) RunSteady() {
	c.Trace.Emit(trace.KindPhase, "cluster", "steady state: %d rounds × %d requests/VM",
		c.Cfg.SteadyRounds, c.Cfg.IterationsPerRound)
	for round := 0; round < c.Cfg.SteadyRounds; round++ {
		for _, w := range c.Workers {
			w.RunSteadyState(c.Cfg.IterationsPerRound)
		}
		c.Clock.RunFor(c.Cfg.RoundDuration)
	}
	st := c.Scanner.Stats()
	c.Trace.Emit(trace.KindScanner, "ksm", "steady done: sharing %d pages -> %d mappings, %d MB saved",
		st.PagesShared, st.PagesSharing, st.SavedBytes>>20)
}

// Run executes warm-up plus steady state (the standard measurement flow).
func (c *Cluster) Run() {
	c.RunWarmup()
	c.RunSteady()
}

// Analyze freezes the current memory state through the §2 methodology.
func (c *Cluster) Analyze() *memanalysis.Analysis {
	return memanalysis.Analyze(c.Host, c.Kernels,
		memanalysis.WithTLBEntries(c.Cfg.TLBEntries))
}

// ScaleBytes converts simulated bytes back into paper units.
func (c *Cluster) ScaleBytes(b int64) int64 {
	return b * int64(c.Cfg.withDefaults().Scale)
}

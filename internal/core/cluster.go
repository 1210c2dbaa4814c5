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
	"repro/internal/simclock"
	"repro/internal/thp"
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
	// The unscaled guest kernel memory, calibrated so the Fig. 2
	// guest-kernel bars land near the paper's 219 MB with ≈50 % shared.
	guestKernelTextBytes = int64(16) << 20
	guestKernelDataBytes = int64(30) << 20
	guestKernelSlabBytes = int64(50) << 20
	// warmupPasses is the number of full KSM passes at the fast scan rate
	// (the paper's first ≈3 minutes at 10 000 pages per wake-up).
	warmupPasses = 4
)

// Knobs are the subsystem switches every cluster of an experiment shares:
// each is one tpsim flag, declared here once and embedded in both Options and
// ClusterConfig, so Options.clusterConfig carries all of them in one struct
// copy. The zero value of every knob keeps the paper figures byte-identical.
type Knobs struct {
	// THPPolicy enables the transparent-huge-page collapse daemon (tpsim
	// -thp). Under always or fhpm, khugepaged-style collapse competes
	// with KSM for dense guest-RAM runs.
	THPPolicy thp.Policy
	// THPKSMSplit lets KSM split huge mappings back to base pages when it
	// verifies duplicate content (tpsim -thp-ksm-split) — the
	// sharing-recovery side of the THP-vs-KSM tradeoff. It needs
	// thp.PolicyAlways: never has no huge pages to split, and
	// thp.PolicyFHPM carries its own per-subpage splitting
	// (ksm.SplitSubpage). Options.Validate rejects any other policy, and
	// BuildCluster panics on one.
	THPKSMSplit bool
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
}

// ClusterConfig describes one KVM experiment run.
type ClusterConfig struct {
	// Scale divides all byte quantities and class counts (0 = DefaultScale).
	Scale int
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
	// instead of identical benchmark drivers): the intervention of the
	// identical-drivers-share-wire-data claim.
	PerVMNIOSalt bool
	// DisableKSM leaves the scanner off: the memory state stays unmerged.
	DisableKSM bool
	// Knobs are the subsystem switches (THP, incremental scan, ShareJIT,
	// modeled TLB size).
	Knobs
	// PerVMCacheLayout is the intervention of the layout-is-the-cause claim:
	// each guest populates its OWN cache in its own load order instead of
	// receiving one copied file. The caches hold identical classes with
	// different layouts, so cross-VM page identity — and the class-metadata
	// sharing — collapses.
	PerVMCacheLayout bool
	// BaseSeed perturbs every per-VM and per-process seed; experiments with
	// error bars run several base seeds.
	BaseSeed mem.Seed

	// SteadyRounds is the number of steady-state rounds; each round runs
	// IterationsPerRound requests on every instance and advances the clock
	// by RoundDuration while KSM scans at 1 000 pages per wake-up.
	SteadyRounds       int
	IterationsPerRound int
	// RoundDuration is the virtual time per steady round (0 = 1 s).
	RoundDuration simclock.Time

	// EnableMetrics attaches the cluster's telemetry sampler, which reads
	// KSM, physical-memory, JVM and swap gauges on a virtual-time cadence.
	// Every probe is read-only, so results are identical with it on or off.
	EnableMetrics bool
}

// withDefaults fills zero fields.
func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.Scale == 0 {
		cfg.Scale = DefaultScale
	}
	if cfg.NumVMs == 0 {
		cfg.NumVMs = len(cfg.Specs)
	}
	if cfg.JVMsPerGuest == 0 {
		cfg.JVMsPerGuest = 1
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
	return cfg
}

// Cluster is a running experiment.
type Cluster struct {
	Cfg     ClusterConfig
	Clock   *simclock.Clock
	Host    *hypervisor.Host
	Corpus  *classlib.Corpus
	Kernels []*guestos.Kernel
	Workers []*workload.Instance
	Scanner *ksm.KSM
	// THP is the huge-page collapse daemon (nil under thp.PolicyNever; the
	// thp API is nil-safe).
	THP *thp.Daemon

	// telemetry is nil unless EnableMetrics.
	telemetry   *sampler
	images      map[string]*cds.Image
	jitArchives map[string]*jitshare.Archive
	// warmupEnded is the virtual time RunWarmup returned at (zero before).
	warmupEnded simclock.Time
	// analysisErr is the first law an analysis broke (Analyze).
	analysisErr error

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
	if cfg.THPKSMSplit && cfg.THPPolicy != thp.PolicyAlways {
		panic(fmt.Sprintf("core: THPKSMSplit needs THPPolicy always (got %v)", cfg.THPPolicy))
	}
	clock := simclock.New()
	host := hypervisor.NewHost(hypervisor.Config{
		Name:               "BladeCenter-LS21",
		RAMBytes:           HostRAMBytes / int64(cfg.Scale),
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
	// The scanner runs from the start at the paper's warm-up rate (10 000
	// pages per 100 ms wake-up): guests deploy while KSM merges, exactly as
	// in §2.C where KSM is enabled during WAS startup.
	kcfg := ksm.DefaultConfig()
	kcfg.PagesToScan = 10000
	switch {
	case cfg.THPPolicy == thp.PolicyFHPM:
		// Under FHPM, KSM carves just the duplicate-bearing subpage instead
		// of dissolving the whole block.
		kcfg.HugeSplit = ksm.SplitSubpage
	case cfg.THPKSMSplit:
		kcfg.HugeSplit = ksm.SplitWhole
	}
	kcfg.IncrementalScan = cfg.IncrementalScan
	c.Scanner = ksm.New(host, kcfg)
	if !cfg.DisableKSM {
		c.Scanner.Start()
	}
	if cfg.THPPolicy != thp.PolicyNever {
		tcfg := thp.DefaultConfig()
		tcfg.Policy = cfg.THPPolicy
		c.THP = thp.New(host, tcfg)
		c.THP.Start()
	}
	if cfg.EnableMetrics {
		c.telemetry = &sampler{clock: clock}
		c.instrument()
		// Started before the first guest boots so the series cover the
		// provisioning ramp, not just warm-up and steady state.
		c.telemetry.start()
	}
	for i := 0; i < cfg.NumVMs; i++ {
		spec := cfg.Specs[i%len(cfg.Specs)]
		c.addGuest(i, spec)
		c.Scanner.Register(c.Host.VMs()[i])
		c.THP.Register(c.Host.VMs()[i])
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
		TextBytes: guestKernelTextBytes / int64(cfg.Scale),
		DataBytes: guestKernelDataBytes / int64(cfg.Scale),
		SlabBytes: guestKernelSlabBytes / int64(cfg.Scale),
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
		k.FS().Install(&guestos.File{Path: jvm.CachePath, Data: img.FileBytes(c.Corpus)})
		dcfg.CacheImage = img
	}
	if cfg.JITShare {
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
	c.THP.Register(slot.vm)
	return slot.kernel
}

// CheckLeaks runs the hypervisor's leak invariant with the scanner's stable
// tree accounted as external references. Nil means every frame refcount and
// swap slot is exactly explained by live state.
func (c *Cluster) CheckLeaks() error {
	return c.Host.CheckLeaks(c.Scanner.StableFrames())
}

// Verify checks the cluster at a quiescent point and reports the first law
// broken: an attribution law any analysis it returned broke (Analyze checks
// each), then §2's accounting law, every host frame reference explained by
// live state (CheckLeaks), then the scanner's own laws (ksm.Verify). Nil
// means all hold.
func (c *Cluster) Verify() error {
	if c.analysisErr != nil {
		return c.analysisErr
	}
	return verifyHost(c.Host, c.Scanner)
}

// verifyHost is Verify for any host and its scanner; Fig. 6's cells, which
// build no Cluster, run it too.
func verifyHost(h *hypervisor.Host, k *ksm.KSM) error {
	if err := h.CheckLeaks(k.StableFrames()); err != nil {
		return err
	}
	return k.Verify()
}

// cacheImage returns the cold-run cache for a workload, built once per
// cache name and reused for every guest — the "copy the file to all of the
// VMs" step of §4.B.
func (c *Cluster) cacheImage(spec workload.Spec) *cds.Image {
	if img, ok := c.images[spec.CacheName]; ok {
		return img
	}
	img := workload.BuildCache(c.Corpus, spec, c.Cfg.Scale)
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

// instrument registers the cluster's gauges on its sampler. All probes are
// read-only views of simulation state; none may mutate it, which is what
// keeps a telemetry-on run bit-identical to a telemetry-off run.
func (c *Cluster) instrument() {
	gauge := c.telemetry.gauge
	pm := c.Host.Phys()
	gauge("mem.frames_in_use", func() float64 { return float64(pm.FramesInUse()) })
	gauge("mem.frames_free", func() float64 { return float64(pm.FreeFrames()) })
	gauge("mem.frames_ksm", func() float64 { return float64(pm.KSMFrames()) })
	gauge("mem.frames_zero", func() float64 { return float64(pm.ZeroFrames()) })
	gauge("host.free_bytes", func() float64 { return float64(c.Host.FreeBytes()) })
	gauge("host.swap_used_bytes", func() float64 { return float64(c.Host.SwapUsedBytes()) })
	gauge("host.major_faults", func() float64 { return float64(c.Host.Stats().MajorFaults) })
	gauge("host.swap_outs", func() float64 { return float64(c.Host.Stats().SwapOuts) })
	gauge("host.cow_breaks", func() float64 { return float64(c.Host.Stats().COWBreaks) })
	gauge("mem.frames_huge", func() float64 { return float64(pm.HugeFrames()) })
	c.Scanner.Instrument(gauge)
	c.THP.Instrument(gauge)
	// JVM gauges aggregate over c.Workers through the closure, so instances
	// deployed after Start are picked up by the next sample automatically.
	gauge("jvm.heap_used_bytes", func() float64 {
		var total int64
		for _, w := range c.Workers {
			total += w.JVM.Heap().UsedBytes()
		}
		return float64(total)
	})
	gauge("jvm.heap_capacity_bytes", func() float64 {
		var total int64
		for _, w := range c.Workers {
			total += w.JVM.Heap().CapacityBytes()
		}
		return float64(total)
	})
	gauge("jvm.minor_gcs", func() float64 {
		var total uint64
		for _, w := range c.Workers {
			total += w.JVM.Heap().Stats().MinorGCs
		}
		return float64(total)
	})
	gauge("jvm.major_gcs", func() float64 {
		var total uint64
		for _, w := range c.Workers {
			total += w.JVM.Heap().Stats().MajorGCs
		}
		return float64(total)
	})
	gauge("jvm.classes_loaded", func() float64 {
		total := 0
		for _, w := range c.Workers {
			total += w.JVM.LoadStats().ClassesLoaded
		}
		return float64(total)
	})
	gauge("jvm.live_objects", func() float64 {
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
		gauge("jitshare.code_pages_shareable", func() float64 { return float64(census().Shareable) })
		gauge("jitshare.code_pages_merged", func() float64 { return float64(census().Merged) })
		gauge("jitshare.code_pages_cow_broken", func() float64 {
			total := 0
			for _, w := range c.Workers {
				total += w.JVM.JIT().Stats().CanonicalPagesInvalidated
			}
			return float64(total)
		})
		gauge("jitshare.rejits", func() float64 {
			total := 0
			for _, w := range c.Workers {
				total += w.JVM.JIT().Stats().ReJITs
			}
			return float64(total)
		})
	}
}

// RunWarmup runs the paper's warm-up phase: scenario initialization traffic
// on every guest, interleaved with KSM at the fast 10 000 pages/100 ms
// setting, until warmupPasses full passes complete; then the
// scanner drops to the steady 1 000 pages per wake-up.
func (c *Cluster) RunWarmup() {
	wakeupsPerPass := c.totalGuestPages()/10000 + 1
	slices := warmupPasses * 2
	fixedSlice := simclock.Time(wakeupsPerPass*warmupPasses/slices+1) * 100 * simclock.Millisecond
	for s := 0; s < slices; s++ {
		for _, w := range c.Workers {
			n := w.WarmupTarget() / slices
			if n < 1 {
				n = 1
			}
			w.RunSteadyState(n)
		}
		c.Clock.RunFor(fixedSlice)
	}
	c.Scanner.SetPagesToScan(1000)
	c.warmupEnded = c.Clock.Now()
}

// RunSteady drives the measurement phase: each round every instance serves
// IterationsPerRound requests and the clock advances by RoundDuration while
// KSM scans at the steady 1 000 pages per wake-up.
func (c *Cluster) RunSteady() {
	for round := 0; round < c.Cfg.SteadyRounds; round++ {
		for _, w := range c.Workers {
			w.RunSteadyState(c.Cfg.IterationsPerRound)
		}
		c.Clock.RunFor(c.Cfg.RoundDuration)
	}
}

// Run executes warm-up plus steady state (the standard measurement flow).
func (c *Cluster) Run() {
	c.RunWarmup()
	c.RunSteady()
}

// Analyze freezes the current memory state through the §2 methodology and
// checks it against the attribution laws (memanalysis.Analysis.Verify) while
// the host still matches it; Verify reports the first law broken.
func (c *Cluster) Analyze() *memanalysis.Analysis {
	a := memanalysis.Analyze(c.Host, c.Kernels)
	if err := a.Verify(); err != nil && c.analysisErr == nil {
		c.analysisErr = err
	}
	return a
}

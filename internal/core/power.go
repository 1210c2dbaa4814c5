package core

import (
	"fmt"

	"repro/internal/classlib"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/jvm"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// POWER-platform constants from Tables I and II.
const (
	// PowerRAMBytes is the BladeCenter PS701's 128 GB.
	PowerRAMBytes = int64(128) << 30
	// AIXKernelVersion labels the AIX 6.1 TL6 guest build.
	AIXKernelVersion = "AIX-6.1-TL6"
)

// PowerPair is one pair of Fig. 6 bars: total physical usage just after
// starting WAS (before the hypervisor finishes sharing) and after.
type PowerPair struct {
	BeforeMB float64
	AfterMB  float64
}

// SavingMB is the memory recovered by page sharing.
func (p PowerPair) SavingMB() float64 { return p.BeforeMB - p.AfterMB }

// PowerFigure is the Fig. 6 result.
type PowerFigure struct {
	ID        string
	Title     string
	NoPreload PowerPair
	Preload   PowerPair
}

// DeltaMB is the additional saving from preloading classes (the paper
// measures 181.0 MB).
func (f PowerFigure) DeltaMB() float64 {
	return f.Preload.SavingMB() - f.NoPreload.SavingMB()
}

// fig6 runs the PowerVM experiment: three 3.5 GB AIX partitions each
// running WAS + DayTrader (25 client threads, 1 GB heap), measured before
// and after the hypervisor's page sharing, without and with the preloaded
// shared class cache.
func fig6(inv *invocation) PowerFigure {
	pairs := runCells[PowerPair](inv, []cell{powerCell(inv.o, false, mem.DefaultPageSize), powerCell(inv.o, true, mem.DefaultPageSize)})
	return PowerFigure{ID: "fig6", Title: "PowerVM: physical memory of three guest VMs, before/after sharing",
		NoPreload: pairs[0], Preload: pairs[1]}
}

// powerCell is one Fig. 6 configuration on pages of pageSize bytes. The
// figure runs 4 KiB pages; the 64k-pages-keep-sharing claim reruns the
// preloaded one on POWER's 64 KiB. The rest of its config is the
// invocation's options.
func powerCell(o Options, preload bool, pageSize int) cell {
	label := fmt.Sprintf("fig6 preload=%v", preload)
	if pageSize != mem.DefaultPageSize {
		label += fmt.Sprintf(" %dK pages", pageSize>>10)
	}
	return cell{label, [2]any{preload, pageSize}, func() cellValue { return powerRun(o, preload, pageSize) }}
}

// powerRun executes one Fig. 6 configuration and returns its bar pair, with
// the law its host broke if one did.
// PowerVM's Active Memory Sharing is modelled as the KVM host with no host
// kernel reserve and no VM-process overhead, swept by one full KSM pass per
// round. Only the host's total frames in use are read, the one quantity
// AIX's monitoring gave the paper; totals cannot see the memslot layer.
func powerRun(o Options, preload bool, pageSize int) cellValue {
	scale := o.scale()
	host := hypervisor.NewHost(hypervisor.Config{
		Name:     "BladeCenter-PS701",
		RAMBytes: PowerRAMBytes / int64(scale),
		PageSize: pageSize,
	}, simclock.New())
	corpus := classlib.NewCorpus(jvm.RuntimeVersion, scale)
	spec := workload.DayTraderPOWER()

	var img = workload.BuildCache(corpus, spec, scale)
	var file []byte // one serialized cache file, copied to every LPAR
	if preload {
		file = img.FileBytes(corpus)
	}
	var instances []*workload.Instance
	pages := 0
	for i := 0; i < 3; i++ {
		vm := host.NewVM(hypervisor.VMConfig{
			Name:          fmt.Sprintf("LPAR %d", i+1),
			GuestMemBytes: spec.GuestMemBytes / int64(scale),
			Seed:          mem.Combine(o.Seed, mem.HashString("lpar"), mem.Seed(i+1)),
		})
		pages += vm.GuestPages()
		k := guestos.Boot(vm, guestos.KernelConfig{
			Version:   AIXKernelVersion,
			TextBytes: (24 << 20) / int64(scale),
			DataBytes: (48 << 20) / int64(scale),
			SlabBytes: (72 << 20) / int64(scale),
		})
		dcfg := workload.DeployConfig{Scale: scale}
		if preload {
			k.FS().Install(&guestos.File{Path: jvm.CachePath, Data: file})
			dcfg.CacheImage = img
		}
		instances = append(instances, workload.Deploy(k, corpus, spec, dcfg))
	}
	scanner := ksm.New(host, ksm.DefaultConfig())
	scanner.RegisterAll()

	before := host.Phys().BytesInUse()
	// The scanner converges while the system serves load: the volatility
	// gate needs consecutive quiet observations of each page.
	rounds := 6
	if o.Quick {
		rounds = 4
	}
	for r := 0; r < rounds; r++ {
		for _, in := range instances {
			in.RunSteadyState(4)
		}
		scanner.ScanChunk(pages)
	}
	after := host.Phys().BytesInUse()

	toMB := func(b int64) float64 { return float64(b) * float64(scale) / (1 << 20) }
	return cellValue{v: PowerPair{BeforeMB: toMB(before), AfterMB: toMB(after)}, err: verifyHost(host, scanner)}
}

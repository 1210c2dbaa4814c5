package core

import (
	"fmt"
	"sort"

	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The throughput model for Fig. 7 / Fig. 8. The simulation produces real
// paging behaviour (which pages are resident, which fault back in from swap
// during request processing); the model turns the measured major-fault rate
// into request latency through a shared swap disk:
//
//	service    L0 = threads / baseRate        (latency when memory is ample)
//	faults     f  = majorFaults/request (request working sets are sized in
//	           paper units, so per-request fault counts are scale-invariant)
//	disk       one swap device, service time DiskServiceSec, M/M/1-style
//	           congestion: faultLatency = s / (1 - ρ), ρ = aggregate
//	           fault arrival × s
//	latency    L = L0 + f × faultLatency
//	throughput per VM = threads / L
//
// The fixed point of this system collapses exactly when resident demand
// exceeds host RAM enough that request working sets start faulting — the
// paper's cliff between 7 and 8 guest VMs (Fig. 7) and 6 and 7 (Fig. 8).
const (
	// DiskServiceSec is the swap device service time per page (a 2009-era
	// SATA disk seek).
	DiskServiceSec = 0.008
	// SLALatencyFactor flags a response-time SLA violation when latency
	// exceeds this multiple of the unloaded latency (Fig. 8's dashed
	// annotation).
	SLALatencyFactor = 1.35
)

// VMPerf is one guest's steady-state performance.
type VMPerf struct {
	VMName        string
	Workload      string
	Throughput    float64 // requests/sec (EjOPS for SPECjEnterprise)
	LatencySec    float64
	FaultsPerReq  float64 // paper-scale faults per request
	SLAViolated   bool
	BaseRate      float64
	ClientThreads int
}

// MeasurePerf runs a measurement window of the given number of rounds and
// returns each VM's modelled throughput. It must be called after Run (the
// system should be in steady state).
func (c *Cluster) MeasurePerf(rounds int) []VMPerf {
	cfg := c.Cfg
	before := make([]uint64, len(c.Workers))
	for i, w := range c.Workers {
		before[i] = majorFaultsOf(w)
	}
	for r := 0; r < rounds; r++ {
		for _, w := range c.Workers {
			w.RunSteadyState(cfg.IterationsPerRound)
		}
		c.Clock.RunFor(cfg.RoundDuration)
	}
	requests := float64(rounds * cfg.IterationsPerRound)

	perVM := make([]VMPerf, len(c.Workers))
	for i, w := range c.Workers {
		delta := majorFaultsOf(w) - before[i]
		perVM[i] = VMPerf{
			VMName:        w.Kernel().VM().Name(),
			Workload:      w.Spec.Name,
			FaultsPerReq:  float64(delta) / requests,
			BaseRate:      w.Spec.BaseRequestsPerSec,
			ClientThreads: w.Spec.ClientThreads,
		}
	}
	solveThroughput(perVM)
	for _, v := range perVM {
		c.Trace.Emit(trace.KindMeasure, v.VMName, "%s: %.1f req/s, %.2f faults/req, SLA violated: %v",
			v.Workload, v.Throughput, v.FaultsPerReq, v.SLAViolated)
	}
	return perVM
}

// majorFaultsOf reads the hypervisor-level major-fault counter of the VM an
// instance runs in.
func majorFaultsOf(w *workload.Instance) uint64 {
	vm, ok := w.Kernel().VM().(*hypervisor.VMProcess)
	if !ok {
		panic("core: perf measurement requires a KVM (process-VM) guest")
	}
	return vm.Stats().MajorFaults
}

// solveThroughput finds the fixed point of the shared-disk congestion model
// by bisection on the disk utilization ρ. Given ρ, every VM's throughput is
// determined; the aggregate fault arrival rate λ(ρ) is decreasing in ρ, so
// g(ρ) = λ(ρ)·s − ρ has a unique root.
func solveThroughput(vms []VMPerf) {
	lambdaAt := func(rho float64) float64 {
		faultLatency := DiskServiceSec / (1 - rho)
		var lambda float64
		for _, v := range vms {
			l0 := float64(v.ClientThreads) / v.BaseRate
			lat := l0 + v.FaultsPerReq*faultLatency
			lambda += float64(v.ClientThreads) / lat * v.FaultsPerReq
		}
		return lambda
	}
	lo, hi := 0.0, 0.999
	if lambdaAt(lo)*DiskServiceSec <= lo {
		hi = lo // no congestion at all
	}
	for iter := 0; iter < 60 && hi-lo > 1e-9; iter++ {
		mid := (lo + hi) / 2
		if lambdaAt(mid)*DiskServiceSec > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	rho := hi
	faultLatency := DiskServiceSec / (1 - rho)
	for i := range vms {
		l0 := float64(vms[i].ClientThreads) / vms[i].BaseRate
		lat := l0 + vms[i].FaultsPerReq*faultLatency
		vms[i].LatencySec = lat
		vms[i].Throughput = float64(vms[i].ClientThreads) / lat
		vms[i].SLAViolated = lat > SLALatencyFactor*l0
	}
}

// Aggregate sums per-VM throughput (the Fig. 7 y-axis).
func Aggregate(vms []VMPerf) float64 {
	var t float64
	for _, v := range vms {
		t += v.Throughput
	}
	return t
}

// MeanScore averages per-VM throughput (the Fig. 8 y-axis: EjOPS at a fixed
// injection rate, which does not grow with the VM count).
func MeanScore(vms []VMPerf) float64 {
	if len(vms) == 0 {
		return 0
	}
	return Aggregate(vms) / float64(len(vms))
}

// AnySLAViolated reports whether any guest missed the response-time SLA.
func AnySLAViolated(vms []VMPerf) bool {
	for _, v := range vms {
		if v.SLAViolated {
			return true
		}
	}
	return false
}

// SweepPoint is one x-position of Fig. 7 / Fig. 8: min/mean/max over the
// repetitions for both configurations.
type SweepPoint struct {
	NumVMs               int
	Default              Stat
	Preloaded            Stat
	DefaultSLAViolated   bool
	PreloadedSLAViolated bool
}

// Stat summarizes repetitions (the paper's error bars are min and max of
// three executions).
type Stat struct {
	Min, Mean, Max float64
}

func statOf(samples []float64) Stat {
	if len(samples) == 0 {
		return Stat{}
	}
	s := Stat{Min: samples[0], Max: samples[0]}
	var sum float64
	for _, v := range samples {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(samples))
	return s
}

// SweepFigure is a Fig. 7 / Fig. 8 result.
type SweepFigure struct {
	ID     string
	Title  string
	Unit   string
	Points []SweepPoint
}

// sweepSample is one fanned-out cluster run of a sweep: a single
// (VM count, configuration, repetition) cell.
type sweepSample struct {
	value    float64
	violated bool
}

// sweep runs the VM-count sweep for one workload and aggregation mode.
// Every (count, configuration, repetition) cell is an independent cluster
// run whose seed depends only on the repetition, so the cells fan out across
// the runner's pool; the reduction below walks them in submission order and
// the figure is identical at every pool width.
func sweep(o Options, id, title, unit string, spec workload.Spec, counts []int, reps int, aggregate bool) SweepFigure {
	fig := SweepFigure{ID: id, Title: title, Unit: unit}
	measure := func(c *Cluster) sweepSample {
		c.Run()
		perf := c.MeasurePerf(20)
		s := sweepSample{violated: AnySLAViolated(perf)}
		if aggregate {
			s.value = Aggregate(perf)
		} else {
			s.value = MeanScore(perf)
		}
		return s
	}
	var cells []cell[sweepSample]
	for _, n := range counts {
		for _, shared := range []bool{false, true} {
			for rep := 0; rep < reps; rep++ {
				cfg := o.clusterConfig([]workload.Spec{spec}, n, shared)
				cfg.BaseSeed = mem.Combine(o.Seed, mem.Seed(rep+1))
				// The measurement must span at least one full GC cycle per
				// VM: the collector's whole-heap touch is what exposes
				// over-commitment as faults.
				cfg.SteadyRounds, cfg.IterationsPerRound = 8, 25
				cells = append(cells, cell[sweepSample]{
					label: fmt.Sprintf("%s n=%d shared=%v rep=%d", id, n, shared, rep+1),
					cfg:   cfg, measure: measure,
				})
			}
		}
	}
	results := runCells(o, cells)

	i := 0
	for _, n := range counts {
		pt := SweepPoint{NumVMs: n}
		for _, shared := range []bool{false, true} {
			var samples []float64
			viol := false
			for rep := 0; rep < reps; rep++ {
				samples = append(samples, results[i].value)
				viol = viol || results[i].violated
				i++
			}
			if shared {
				pt.Preloaded = statOf(samples)
				pt.PreloadedSLAViolated = viol
			} else {
				pt.Default = statOf(samples)
				pt.DefaultSLAViolated = viol
			}
		}
		fig.Points = append(fig.Points, pt)
	}
	sort.Slice(fig.Points, func(i, j int) bool { return fig.Points[i].NumVMs < fig.Points[j].NumVMs })
	return fig
}

// Fig7 sweeps DayTrader from 1 to 9 guest VMs (Quick: fewer points, one
// repetition) and reports aggregate requests/sec for the default and
// preloaded configurations.
func Fig7(o Options) SweepFigure {
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	reps := 3
	if o.Quick {
		counts = []int{2, 7, 8, 9}
		reps = 1
	}
	return sweep(o, "fig7", "DayTrader throughput vs number of guest VMs", "req/s",
		workload.DayTrader(), counts, reps, true)
}

// Fig8 sweeps SPECjEnterprise 2010 from 5 to 8 guest VMs at injection rate
// 15 with the gencon policy and reports the per-VM EjOPS score.
func Fig8(o Options) SweepFigure {
	counts := []int{5, 6, 7, 8}
	reps := 3
	if o.Quick {
		counts = []int{6, 7}
		reps = 1
	}
	return sweep(o, "fig8", "SPECjEnterprise 2010 score vs number of guest VMs (IR=15)", "EjOPS",
		workload.SPECjEnterprise(), counts, reps, false)
}

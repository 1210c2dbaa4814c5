package core

import (
	"fmt"
	"strings"

	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/workload"
)

// Claim is one falsifiable statement from the paper that the simulation
// must reproduce. The self-check (cmd/tpsim check) evaluates every claim and
// reports pass/fail — a downstream user's one-command verification that the
// reproduction behaves on their machine. A counterfactual claim compares a
// factual cell with one that differs from it in a single knob, attributing
// an effect to its cause by difference, and prints both values.
type Claim struct {
	ID        string
	Statement string
	// Check reads the figures and returns a measured summary plus whether
	// the claim held. It runs nothing: runClaims computes every cell once,
	// before any claim is evaluated.
	Check func(f *claimFigures) (string, bool)
}

// claimFigures is every value the claims read: the registry's figures at the
// check's options, and the counterfactual cells beside them.
type claimFigures struct {
	fig2, fig4                               MemFigure
	fig3a, fig3b, fig3c, fig5a, fig5b, fig5c JavaFigure
	fig6                                     PowerFigure
	fig7                                     SweepFigure // at least the quick 8-VM point

	// The counterfactual cells, each one knob away from a factual one.
	perVMLayout JavaFigure // fig5a's, each guest laying out its own cache
	nioSalted   JavaFigure // fig3a's, the wire traffic salted per VM
	fig6Page64K PowerPair  // fig6's preloaded run, on 64 KiB pages
}

// mixedLabels are the Fig. 3(b)/5(b) bars in VM order.
const mixedLabels = "DayTrader / SPECjEnterprise / TPC-W"

// Claims returns the full claim suite in paper order.
func Claims() []Claim {
	return []Claim{
		{"java-dominates", "Java processes are the largest memory consumers in each guest VM (§2.D)",
			func(f *claimFigures) (string, bool) {
				vms := f.fig2.VMs
				if len(vms) != 4 {
					return fmt.Sprintf("%d guests, want 4", len(vms)), false
				}
				for _, v := range vms {
					if v.JavaMB < v.KernelMB || v.JavaMB < v.OtherMB {
						return fmt.Sprintf("VM %s: java %.0f MB not dominant", v.Name, v.JavaMB), false
					}
				}
				return fmt.Sprintf("java %.0f-%.0f MB per guest", vms[0].JavaMB, vms[len(vms)-1].JavaMB), true
			}},
		{"kernel-half-shared", "About half the guest kernel area is shared across VMs (§2.D)",
			func(f *claimFigures) (string, bool) {
				if len(f.fig2.VMs) < 2 {
					return "fewer than two guests", false
				}
				// Position is ownership here: a frame no Java process maps
				// goes to its first mapper in walk order
				// (memanalysis.ownerLess), and the figure lists the VMs in
				// that order, so the first VM owns the shared kernel frames.
				owner, other := f.fig2.VMs[0].KernelMB, f.fig2.VMs[1].KernelMB
				frac := (owner - other) / owner
				// The lower bound is the owner's kernel bar above 1.5× the others'.
				return fmt.Sprintf("kernel %.0f MB owner vs %.0f MB non-primary (%.0f%% shared)", owner, other, frac*100),
					frac > 1.0/3 && frac < 0.8
			}},
		{"baseline-classmeta-unshared", "Without preloading, class metadata is essentially unshared (§3.A)",
			func(f *claimFigures) (string, bool) { return worstCase(f.fig3a, jvm.CatClassMeta, 4, 0.15) }},
		{"baseline-heap-unshared", "The Java heap shares almost nothing (paper: 0.7%, zero pages only) (§3.A)",
			func(f *claimFigures) (string, bool) { return worstCase(f.fig3a, jvm.CatHeap, 4, 0.1) }},
		{"identical-drivers-share-wire-data", "The JVM work area shares partly because the benchmark drivers send identical wire data; per-VM traffic lowers it (§3.A)",
			func(f *claimFigures) (string, bool) {
				work := func(fig JavaFigure) (shared float64) {
					for _, b := range fig.Bars {
						shared += b.Cat(jvm.CatJVMWork).SharedMB
					}
					return shared
				}
				same, salted := work(f.fig3a), work(f.nioSalted)
				return fmt.Sprintf("JVM work area shares %.1f MB with identical drivers vs %.1f MB with per-VM traffic", same, salted),
					salted < same
			}},
		{"code-area-shared", "The code area is the one JVM area TPS shares without help (§3.B)",
			func(f *claimFigures) (string, bool) {
				code, _, missing := fracs(f.fig3a, jvm.CatCode)
				if missing != "" {
					return missing, false
				}
				n := countAbove(code, 0.5)
				return fmt.Sprintf("%d of %d JVMs share most of their code area", n, len(code)),
					len(code) == 4 && n == len(code)-1 // the owner pays
			}},
		{"jit-code-unshared", "JIT-compiled code is not shared: its content follows each JVM's own profile (§3.B)",
			func(f *claimFigures) (string, bool) { return worstCase(f.fig3a, jvm.CatJITCode, 4, 0.1) }},
		{"mixed-baseline-unshared", "Three different applications in one WAS version leave class metadata unshared too (Fig. 3(b), §3.A)",
			func(f *claimFigures) (string, bool) {
				if got := barLabels(f.fig3b); got != mixedLabels {
					return "bars " + got, false
				}
				return worstCase(f.fig3b, jvm.CatClassMeta, 3, 0.15)
			}},
		{"tuscany-baseline-unshared", "Tuscany JVMs are an order of magnitude smaller than WAS, with class metadata unshared too (Fig. 3(c), §3.A)",
			func(f *claimFigures) (string, bool) {
				largest := 0.0
				for _, b := range f.fig3c.Bars {
					largest = max(largest, b.TotalMapped())
				}
				detail, ok := worstCase(f.fig3c, jvm.CatClassMeta, 3, 0.15)
				return fmt.Sprintf("largest JVM %.0f MB, %s", largest, detail), ok && largest <= 350
			}},
		{"preload-classmeta-shared", "Preloading via the copied cache eliminates most class metadata in non-primary JVMs (paper: 89.6%) (§5.A)",
			func(f *claimFigures) (string, bool) { return allButOwner(f.fig5a, 4, 0.7) }},
		{"layout-is-the-cause", "The copied file's one layout is what makes class metadata shareable: per-VM cache layouts lose it (§4, §5.A)",
			func(f *claimFigures) (string, bool) {
				copied, _, missing := fracs(f.fig5a, jvm.CatClassMeta)
				if missing != "" {
					return missing, false
				}
				if len(copied) == 0 || len(f.perVMLayout.Bars) != len(copied) {
					return fmt.Sprintf("%d JVMs vs %d with per-VM layouts", len(copied), len(f.perVMLayout.Bars)), false
				}
				a, b := nonPrimaryShare(f.fig5a), nonPrimaryShare(f.perVMLayout)
				return fmt.Sprintf("non-primary JVMs share %.1f%% with the copied file vs %.1f%% with per-VM layouts", a*100, b*100),
					a >= 0.7 && b <= 0.1
			}},
		{"preload-reduces-total", "Preloading reduces the cluster's total physical memory (paper: 3648→3314 MB) (§5.A)",
			func(f *claimFigures) (string, bool) {
				m2, m4 := f.fig2, f.fig4
				return fmt.Sprintf("%.0f → %.0f MB (Δ %.0f)", m2.TotalMB, m4.TotalMB, m4.TotalMB-m2.TotalMB),
					m4.TotalMB < m2.TotalMB-150
			}},
		{"preload-grows-savings", "Preloading grows the TPS savings by the cache content shared into non-primary JVMs (paper: 20→120 MB per guest) (§5.A)",
			func(f *claimFigures) (string, bool) {
				s2, s4 := f.fig2.TotalSavingsMB, f.fig4.TotalSavingsMB
				return fmt.Sprintf("savings %.0f → %.0f MB (Δ %+.0f)", s2, s4, s4-s2), s4-s2 >= 150
			}},
		{"gc-policy-independent", "The copied cache shares class metadata across applications and GC policies: both non-primary WAS processes share most of it (Fig. 5(b), §5.C)",
			func(f *claimFigures) (string, bool) {
				cm, _, missing := fracs(f.fig5b, jvm.CatClassMeta)
				if missing != "" {
					return missing, false
				}
				if got := barLabels(f.fig5b); got != mixedLabels {
					return "bars " + got, false
				}
				// SPECjEnterprise runs gencon and TPC-W optthruput. Which
				// JVM owns the merged frames follows the PIDs, so the seed.
				specs, owner := mixed().specs, f.fig5b.owner()
				held := specs[1].GCPolicy != specs[2].GCPolicy
				var b strings.Builder
				for i, x := range cm {
					if i != owner {
						fmt.Fprintf(&b, "%s (%v) %.1f%%, ", f.fig5b.Bars[i].Label, specs[i].GCPolicy, x*100)
						held = held && x > 0.6
					}
				}
				fmt.Fprintf(&b, "%s (owner) %.1f%%", f.fig5b.Bars[owner].Label, cm[owner]*100)
				return b.String(), held && cm[owner] <= 0.6
			}},
		{"tuscany-preload-shared", "The technique is not specific to WAS: non-primary Tuscany JVMs share most class metadata (Fig. 5(c), §5.A)",
			func(f *claimFigures) (string, bool) { return allButOwner(f.fig5c, 3, 0.5) }},
		{"powervm-transfer", "The technique transfers to a system-VM hypervisor (PowerVM) (§5.B)",
			func(f *claimFigures) (string, bool) {
				before, after := f.fig6.NoPreload.SavingMB(), f.fig6.Preload.SavingMB()
				return fmt.Sprintf("savings %.0f → %.0f MB with preloading", before, after),
					before > 0 && after > before+50
			}},
		{"64k-pages-keep-sharing", "POWER's 64 KiB pages keep the preloaded sharing: the cache file is page-aligned and identical (§5.B)",
			func(f *claimFigures) (string, bool) {
				small, large := f.fig6.Preload.SavingMB(), f.fig6Page64K.SavingMB()
				return fmt.Sprintf("preloaded savings %.0f MB on 4 KiB pages vs %.0f MB on 64 KiB", small, large),
					small > 0 && large >= 0.9*small
			}},
		{"extra-vm", "Preloading lets one extra DayTrader guest run with acceptable performance (§5.C)",
			func(f *claimFigures) (string, bool) {
				for _, p := range f.fig7.Points {
					if p.NumVMs == 8 {
						return fmt.Sprintf("8 VMs: default %.1f vs ours %.1f req/s", p.Default.Mean, p.Preloaded.Mean),
							p.Preloaded.Mean > 3*p.Default.Mean
					}
				}
				return "no 8-VM point", false
			}},
	}
}

// fracs is each bar's shared fraction of category cat, and the largest. A
// bar that maps none of it is named in missing: a figure without the
// category fails its claim instead of passing at 0 %.
func fracs(f JavaFigure, cat string) (out []float64, top float64, missing string) {
	for _, b := range f.Bars {
		c := b.Cat(cat)
		if c.MappedMB == 0 {
			return nil, 0, fmt.Sprintf("no %s in %s", cat, b.Label)
		}
		out = append(out, c.SharedMB/c.MappedMB)
		top = max(top, out[len(out)-1])
	}
	return out, top, ""
}

func countAbove(xs []float64, thr float64) (n int) {
	for _, x := range xs {
		if x > thr {
			n++
		}
	}
	return n
}

func barLabels(f JavaFigure) string {
	labels := make([]string, len(f.Bars))
	for i, b := range f.Bars {
		labels[i] = b.Label
	}
	return strings.Join(labels, " / ")
}

// worstCase holds when f has jvms bars and none shares bound or more of
// category cat.
func worstCase(f JavaFigure, cat string, jvms int, bound float64) (string, bool) {
	xs, worst, missing := fracs(f, cat)
	if missing != "" {
		return missing, false
	}
	return fmt.Sprintf("worst-case %.1f%% shared", worst*100), len(xs) == jvms && worst < bound
}

// allButOwner holds when f has jvms bars and every one but the owner of the
// merged frames shares more than thr of its class metadata.
func allButOwner(f JavaFigure, jvms int, thr float64) (string, bool) {
	xs, best, missing := fracs(f, jvm.CatClassMeta)
	if missing != "" {
		return missing, false
	}
	high := countAbove(xs, thr)
	return fmt.Sprintf("%d of %d JVMs above %.0f%% (best %.1f%%)", high, len(xs), thr*100, best*100),
		len(xs) == jvms && high == jvms-1
}

// owner is the index of the bar whose JVM owns the frames f's JVMs share:
// owner-oriented accounting gives a shared frame to the Java process with
// the smallest PID, the earlier VM's on a tie (memanalysis.ownerLess), and
// the bars go in VM order. PIDs move with the seed, and so does the owner.
func (f JavaFigure) owner() int {
	o := 0
	for i, b := range f.Bars {
		if b.PID < f.Bars[o].PID {
			o = i
		}
	}
	return o
}

// nonPrimaryShare is the shared fraction of class metadata over every bar
// of f but the owner's.
func nonPrimaryShare(f JavaFigure) float64 {
	var shared, mapped float64
	owner := f.owner()
	for i, b := range f.Bars {
		if i != owner {
			cm := b.Cat(jvm.CatClassMeta)
			shared += cm.SharedMB
			mapped += cm.MappedMB
		}
	}
	return shared / mapped
}

// claimCells lists every cell the claims read: the registry rows' own cells
// (the extra-vm claim reads only fig7's 8-VM point, whose cells are the same
// quick or not), longest first, and last the three counterfactual cells,
// each one knob away from a factual one.
func claimCells(o Options) []cell {
	dt, mx, tu := dayTrader(), mixed(), tuscany()
	cells := o.sweepCells("fig7", workload.DayTrader(), []int{8}, 1)
	for _, shared := range []bool{false, true} {
		cells = append(cells, dt.cellAt(o, shared, "", nil), mx.cellAt(o, shared, "", nil),
			tu.cellAt(o, shared, "", nil), powerCell(o, shared, mem.DefaultPageSize))
	}
	return append(cells,
		dt.cellAt(o, true, "per-vm-layout", func(c *ClusterConfig) { c.PerVMCacheLayout = true }),
		dt.cellAt(o, false, "nio-salt", func(c *ClusterConfig) { c.PerVMNIOSalt = true }),
		powerCell(o, true, 64<<10))
}

// runClaims runs every cell the claims read in one batch, reads the figures
// off the memo and evaluates the suite. ok is true only if all claims held.
func runClaims(inv *invocation) (Result, bool) {
	cells := claimCells(inv.o)
	runCells[any](inv, cells)
	n := len(cells)
	counterfactual := runCells[breakdown](inv, cells[n-3:n-1])
	return evalClaims(&claimFigures{
		fig2: fig2(inv), fig4: fig4(inv),
		fig3a: fig3a(inv), fig3b: fig3b(inv), fig3c: fig3c(inv),
		fig5a: fig5a(inv), fig5b: fig5b(inv), fig5c: fig5c(inv),
		fig6:        fig6(inv),
		fig7:        sweep(inv, "fig7", "", "req/s", workload.DayTrader(), []int{8}, 1, true),
		perVMLayout: counterfactual[0].java,
		nioSalted:   counterfactual[1].java,
		fig6Page64K: runCells[PowerPair](inv, cells[n-1:])[0],
	})
}

// evalClaims evaluates every claim against f and renders the report: the
// prose, and a claim,status,measured table in paper order. ok is true only
// if all claims held.
func evalClaims(f *claimFigures) (res Result, ok bool) {
	t := &report.Table{Title: "check", Headers: []string{"claim", "status", "measured"}}
	var b strings.Builder
	ok = true
	for _, c := range Claims() {
		detail, held := c.Check(f)
		status := "PASS"
		if !held {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "[%s] %-28s %s\n%*s measured: %s\n", status, c.ID, c.Statement, 6, "", detail)
		t.AddRow(c.ID, status, detail)
	}
	return Result{Text: b.String(), CSV: t.CSV(), Figure: t}, ok
}

// Command memmap is the measurement tool of §2.A as a standalone
// inspector: it builds a scenario, freezes it, and prints the full
// owner-oriented attribution of host physical memory — per VM, per process,
// per Table IV category — plus the distribution-oriented (PSS) comparison.
//
// This is the simulated analogue of the paper's crash-dump walker plus the
// host kernel module that extracts the KVM memslot tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/jvm"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	numVMs := flag.Int("vms", 4, "number of guest VMs")
	shared := flag.Bool("shareclasses", false, "copy a populated shared class cache into every VM")
	scale := flag.Int("scale", 0, "memory scale divisor (0 = default)")
	spec := flag.String("workload", "daytrader", "workload: daytrader, specje, tpcw, tuscany")
	dumpOut := flag.String("dump", "", "write a system dump of the final state to this file (virsh dump + crash workflow)")
	analyzeIn := flag.String("analyze", "", "skip simulation; analyze a previously written dump file offline")
	smaps := flag.Bool("smaps", false, "also print each Java process's smaps and the guest meminfo")
	flag.Usage = usage
	flag.Parse()

	if err := validate(*scale, *numVMs); err != nil {
		fmt.Fprintf(os.Stderr, "memmap: %v\n", err)
		os.Exit(2)
	}

	if *analyzeIn != "" {
		analyzeOffline(*analyzeIn)
		return
	}

	var w workload.Spec
	switch *spec {
	case "daytrader":
		w = workload.DayTrader()
	case "specje":
		w = workload.SPECjEnterprise()
	case "tpcw":
		w = workload.TPCW()
	case "tuscany":
		w = workload.Tuscany()
	default:
		fmt.Fprintf(os.Stderr, "memmap: unknown workload %q\n", *spec)
		os.Exit(2)
	}

	c := core.BuildCluster(core.ClusterConfig{
		Scale:         *scale,
		Specs:         []workload.Spec{w},
		NumVMs:        *numVMs,
		SharedClasses: *shared,
		SteadyRounds:  20,
	})
	c.Run()
	if *dumpOut != "" {
		f, err := os.Create(*dumpOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memmap: %v\n", err)
			os.Exit(1)
		}
		d := dump.Capture(c.Host, c.Kernels)
		if err := d.Write(f); err != nil {
			fmt.Fprintf(os.Stderr, "memmap: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("system dump written to %s (analyze offline with -analyze %s)\n\n", *dumpOut, *dumpOut)
	}
	a := c.Analyze()
	if err := c.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "memmap: %v\n", err)
		os.Exit(3)
	}
	sc := c.Cfg.Scale

	if *smaps {
		for _, w := range c.Workers {
			fmt.Println(w.JVM.Process().FormatSmaps())
		}
		for i, k := range c.Kernels {
			fmt.Printf("guest %d meminfo:\n%s\n\n", i+1, k.MemInfo())
		}
	}

	fmt.Printf("Host: %s, %d guest VMs running %s (shared classes: %v)\n",
		c.Host.Name(), *numVMs, w.Name, *shared)
	fmt.Printf("Attributed guest memory: %s MB; TPS savings: %s MB; shared frames: %d\n\n",
		report.MB(a.TotalGuestBytes()*int64(sc)), report.MB(a.TotalSavingsBytes()*int64(sc)), a.SharedFrameCount())

	t := &report.Table{Title: "Per-VM breakdown (owner-oriented, paper-scale MB)",
		Headers: []string{"VM", "Java", "Other procs", "Kernel", "VM overhead", "Total", "TPS saving"}}
	for _, b := range a.VMBreakdowns() {
		t.AddRow(b.VMName,
			report.MB(b.JavaBytes*int64(sc)), report.MB(b.OtherProcBytes*int64(sc)),
			report.MB(b.KernelBytes*int64(sc)), report.MB(b.VMOverheadBytes*int64(sc)),
			report.MB(b.Total()*int64(sc)), report.MB(b.SavingsBytes*int64(sc)))
	}
	fmt.Println(t)

	jt := &report.Table{Title: "Per-JVM Table IV breakdown (paper-scale MB)",
		Headers: []string{"JVM", "PID", "Category", "Mapped", "Owned", "Shared w/ TPS"}}
	for _, jb := range a.JavaBreakdowns() {
		first := true
		for _, cat := range jvm.Categories() {
			cu := jb.ByCat[cat]
			name, pid := "", ""
			if first {
				name, pid = jb.VMName+" "+jb.ProcName, fmt.Sprint(jb.PID)
				first = false
			}
			jt.AddRow(name, pid, cat,
				report.MB(cu.MappedBytes*int64(sc)), report.MB(cu.OwnedBytes*int64(sc)), report.MB(cu.SharedBytes*int64(sc)))
		}
	}
	fmt.Println(jt)

	pt := &report.Table{Title: "Accounting comparison per Java process (paper-scale MB)",
		Headers: []string{"Process", "Owner-oriented", "Distribution-oriented (PSS)"}}
	for i, wkr := range c.Workers {
		proc := wkr.JVM.Process()
		pt.AddRow(fmt.Sprintf("VM %d %s", i+1, proc.Name),
			report.MB(a.OwnerOrientedBytes(proc)*int64(sc)),
			fmt.Sprintf("%.0f", a.PSS(proc)*float64(sc)/(1<<20)))
	}
	fmt.Println(pt)
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprint(w, "usage: memmap [flags]\n\nflags:\n")
	flag.PrintDefaults()
	fmt.Fprint(w, `
Exit status: 0 on success, 1 when a dump file cannot be read or written,
2 for bad flags, 3 when the live host fails verification after its analysis;
stderr then has one line naming the broken law.
`)
}

// validate applies tpsim's -scale rule and requires at least one guest.
func validate(scale, numVMs int) error {
	if err := (core.Options{Scale: scale}).Validate(); err != nil {
		return err
	}
	if numVMs < 1 {
		return fmt.Errorf("-vms must be at least 1 (got %d)", numVMs)
	}
	return nil
}

// analyzeOffline loads a dump file and runs the crash-utility-style
// analysis, printing the same breakdowns the live path does.
func analyzeOffline(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memmap: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	d, err := dump.Read(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memmap: %v\n", err)
		os.Exit(1)
	}
	a := dump.Analyze(d)
	fmt.Printf("Offline analysis of dump from host %s: %d guests, %s MB attributed\n\n",
		d.HostName, len(d.Guests), report.MB(a.TotalGuestBytes()))
	t := &report.Table{Title: "Per-VM breakdown (simulated-scale MB)",
		Headers: []string{"VM", "Java", "Other procs", "Kernel", "VM overhead", "Total", "TPS saving"}}
	for _, b := range a.VMBreakdowns() {
		t.AddRow(b.VMName, report.MB1(b.JavaBytes), report.MB1(b.OtherProcBytes),
			report.MB1(b.KernelBytes), report.MB1(b.VMOverheadBytes),
			report.MB1(b.Total()), report.MB1(b.SavingsBytes))
	}
	fmt.Println(t)
	jt := &report.Table{Title: "Per-JVM Table IV breakdown (simulated-scale MB)",
		Headers: []string{"JVM", "PID", "Category", "Mapped", "Shared w/ TPS"}}
	for _, jb := range a.JavaBreakdowns() {
		first := true
		for _, cat := range jvm.Categories() {
			cu := jb.ByCat[cat]
			name, pid := "", ""
			if first {
				name, pid = jb.VMName+" "+jb.ProcName, fmt.Sprint(jb.PID)
				first = false
			}
			jt.AddRow(name, pid, cat, report.MB1(cu.MappedBytes), report.MB1(cu.SharedBytes))
		}
	}
	fmt.Println(jt)
}

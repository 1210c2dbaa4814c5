// Package classlib generates the synthetic class corpus the workloads load.
//
// The paper's workloads load 10⁴-order class sets dominated by middleware:
// around 90 % of the classes preloaded into the shared cache belong to
// WebSphere (including the OSGi framework and the Derby database) and only
// about 10 % are Java system classes (java.*, javax.*, sun.*,
// org.apache.harmony.*). The corpus reproduces those proportions with
// deterministic per-class sizes and content seeds, so a class has identical
// read-only bytes in every VM that ships the same corpus version — exactly
// the property class-file bytes have in identical base images.
//
// Class *counts* scale with the experiment's memory scale (sizes stay
// realistic relative to the 4 KiB page, which matters: the paper notes data
// structures much smaller than a page cannot share by accident).
package classlib

import (
	"fmt"
	"sort"

	"repro/internal/mem"
)

// Group identifies a component of the class corpus.
type Group string

// Corpus groups. The paper's workloads compose these: a WAS-based app loads
// JDK + OSGi + WASCore + Derby + its own application group; Tuscany loads
// JDK + Tuscany + BigBank.
const (
	GroupJDK Group = "jdk"
	// GroupJDKCore is the subset of the JDK a small standalone server
	// actually touches (the Tuscany bigbank demo does not drag in the full
	// class library the way WAS does).
	GroupJDKCore   Group = "jdk-core"
	GroupOSGi      Group = "osgi"
	GroupWASCore   Group = "wascore"
	GroupDerby     Group = "derby"
	GroupDayTrader Group = "daytrader"
	// GroupDayTraderEJB holds the EJB application classes, which the paper
	// notes are NOT preloadable: the EJB class loaders are not shared-cache
	// aware in the measured J9 implementation.
	GroupDayTraderEJB Group = "daytrader-ejb"
	GroupSPECjE       Group = "specje"
	GroupSPECjEEJB    Group = "specje-ejb"
	GroupTPCW         Group = "tpcw"
	GroupTuscany      Group = "tuscany"
	GroupBigBank      Group = "bigbank"
)

// groupSpec declares a group's unscaled class count and its package prefix.
type groupSpec struct {
	prefix string
	count  int
}

// Unscaled counts sized so the WAS stack's read-only class bytes land near
// the paper's 120 MB shared-cache capacity and Tuscany's near 25 MB
// (see Table III).
var groupSpecs = map[Group]groupSpec{
	GroupJDK:          {prefix: "java.harmony", count: 3600},
	GroupJDKCore:      {prefix: "java.harmony.core", count: 1250},
	GroupOSGi:         {prefix: "org.eclipse.osgi", count: 1100},
	GroupWASCore:      {prefix: "com.ibm.ws", count: 13000},
	GroupDerby:        {prefix: "org.apache.derby", count: 1400},
	GroupDayTrader:    {prefix: "org.apache.geronimo.daytrader", count: 420},
	GroupDayTraderEJB: {prefix: "org.apache.geronimo.daytrader.ejb", count: 130},
	GroupSPECjE:       {prefix: "org.spec.jent", count: 640},
	GroupSPECjEEJB:    {prefix: "org.spec.jent.ejb", count: 160},
	GroupTPCW:         {prefix: "edu.wisc.tpcw", count: 340},
	GroupTuscany:      {prefix: "org.apache.tuscany", count: 2600},
	GroupBigBank:      {prefix: "bigbank.demo", count: 150},
}

// Class describes one Java class.
type Class struct {
	Name  string
	Group Group
	// ROMSize is the read-only part: bytecode, constant pool, string
	// literals — what J9 stores in a ROMClass and CDS can share.
	ROMSize int
	// RAMSize is the writable runtime part: method tables, static fields,
	// resolution state — created privately in every JVM.
	RAMSize int
	// Methods is the method count; the JIT picks hot methods from it.
	Methods int
	// Seed generates the class's read-only bytes; it depends only on the
	// class name and corpus version, never on a process or VM.
	Seed mem.Seed
}

// Corpus is a versioned, scaled set of classes.
type Corpus struct {
	Version string
	Scale   int

	classes map[string]*Class
	groups  map[Group][]*Class
}

// NewCorpus builds the corpus for a content version at a given memory
// scale (class counts divide by scale; scale 1 is the paper's full size).
func NewCorpus(version string, scale int) *Corpus {
	if scale < 1 {
		panic(fmt.Sprintf("classlib: scale %d", scale))
	}
	c := &Corpus{
		Version: version,
		Scale:   scale,
		classes: make(map[string]*Class),
		groups:  make(map[Group][]*Class),
	}
	for _, g := range AllGroups() {
		spec := groupSpecs[g]
		n := spec.count / scale
		if n < 8 {
			n = 8 // keep tiny groups non-degenerate at extreme scales
		}
		list := make([]*Class, 0, n)
		for i := 0; i < n; i++ {
			cl := synthesizeClass(version, g, spec.prefix, i)
			c.classes[cl.Name] = cl
			list = append(list, cl)
		}
		c.groups[g] = list
	}
	return c
}

// AllGroups lists every group in canonical order.
func AllGroups() []Group {
	gs := make([]Group, 0, len(groupSpecs))
	for g := range groupSpecs {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	return gs
}

// synthesizeClass derives a class's name, sizes and seed deterministically.
func synthesizeClass(version string, g Group, prefix string, i int) *Class {
	name := fmt.Sprintf("%s.pkg%02d.C%04d", prefix, i%13, i)
	seed := mem.Combine(mem.HashString(version), mem.HashString(name))
	r := mem.Mix(seed)
	// ROM sizes: 1-7 KiB base with a heavy tail (every 16th class is a
	// large generated or framework class). Mean lands near 6 KiB, so the
	// WAS stack's ROM total approximates the 120 MB cache of Table III,
	// while most classes stay well under a page.
	rom := 1024 + int(uint64(r)%6144)
	if i%16 == 0 {
		rom += 28 * 1024
	}
	r = mem.Mix(r)
	// RAMClass (vtables, static slots) is a small writable companion of the
	// ROMClass; the paper's 89.6 % class-metadata elimination implies the
	// writable share of the category is ≈10 %.
	ram := 512 + int(uint64(r)%512)
	r = mem.Mix(r)
	methods := 4 + int(uint64(r)%36)
	return &Class{
		Name:    name,
		Group:   g,
		ROMSize: rom,
		RAMSize: ram,
		Methods: methods,
		Seed:    seed,
	}
}

// Class finds a class by name.
func (c *Corpus) Class(name string) (*Class, bool) {
	cl, ok := c.classes[name]
	return cl, ok
}

// Group returns a group's classes in canonical (load) order.
func (c *Corpus) Group(g Group) []*Class {
	list, ok := c.groups[g]
	if !ok {
		panic(fmt.Sprintf("classlib: unknown group %q", g))
	}
	return list
}

// GroupROMBytes totals the read-only bytes of a group.
func (c *Corpus) GroupROMBytes(g Group) int64 {
	var total int64
	for _, cl := range c.Group(g) {
		total += int64(cl.ROMSize)
	}
	return total
}

// Stack returns the concatenated classes of several groups in canonical
// order — the class set a workload loads.
func (c *Corpus) Stack(groups ...Group) []*Class {
	var out []*Class
	for _, g := range groups {
		out = append(out, c.Group(g)...)
	}
	return out
}

// StackROMBytes totals read-only bytes across groups.
func (c *Corpus) StackROMBytes(groups ...Group) int64 {
	var total int64
	for _, g := range groups {
		total += c.GroupROMBytes(g)
	}
	return total
}

// ShuffleWindows applies seeded Fisher-Yates shuffles within fixed windows
// of the class stream, modelling how lazy, thread-interleaved loading
// locally reorders classes without globally rearranging components. The
// JVM uses it to perturb per-process load order; the ablation benchmarks
// use it to build per-VM cache layouts.
func ShuffleWindows(classes []*Class, seed mem.Seed, window int) []*Class {
	if window <= 1 {
		window = 48
	}
	out := append([]*Class(nil), classes...)
	for base := 0; base < len(out); base += window {
		end := base + window
		if end > len(out) {
			end = len(out)
		}
		r := mem.Combine(seed, mem.Seed(base))
		for i := end - 1; i > base; i-- {
			r = mem.Mix(r)
			k := base + int(uint64(r)%uint64(i-base+1))
			out[i], out[k] = out[k], out[i]
		}
	}
	return out
}

// HotMethods reports how many of a class's methods are hot at the given
// per-mille threshold. The JIT compiles these, and a ShareJIT archive lays
// out code for exactly the same set, so a JVM attached to the archive finds
// a canonical slot for every method it compiles.
func HotMethods(cl *Class, hotPermille int) int {
	n := cl.Methods * hotPermille / 1000
	r := mem.Mix(cl.Seed)
	if cl.Methods*hotPermille%1000 > int(uint64(r)%1000) {
		n++
	}
	return n
}

// Package dump implements the paper's §2.B collection step: the authors
// take system dumps of the host and of every guest (crash dumps plus
// `virsh dump`), extract the KVM translation tables with a host kernel
// module, and analyze everything offline with the crash utility. This
// package captures the equivalent state of a simulated cluster into a
// self-contained, serializable snapshot that internal/memanalysis can
// analyze without the live cluster — the same decoupling of collection
// from analysis the paper relies on.
package dump

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// FormatVersion guards against analyzing dumps from incompatible builds.
// Version 2: FrameChecksums carries raw mem.ChecksumBytes values, and that
// function changed from byte-serial FNV-1a to a word-at-a-time fold, so a
// version-1 dump's sums compare equal to nothing a current build computes.
// Version 3: the seeded byte stream (mem.Fill) changed, and with it the sum of
// every seeded page a version-2 dump recorded.
const FormatVersion = 3

// Dump is a frozen snapshot of everything the analyzer needs: the frame
// contents summary plus all three translation layers of every guest.
type Dump struct {
	Version  int
	HostName string
	PageSize int
	// FrameChecksums holds the content checksum of every referenced frame;
	// the analyzer does not need full bytes, only attribution structure,
	// but checksums let consumers verify dump integrity. Capturing them is
	// cheap: mem's content store computes each distinct content's checksum
	// at most once, so a snapshot never re-hashes page bytes that any scan
	// or earlier dump already hashed.
	FrameChecksums map[uint32]uint64
	Guests         []GuestDump
}

// GuestDump is one guest VM's state.
type GuestDump struct {
	Name        string
	ID          int
	GuestPages  int
	MemslotBase uint64
	// HostPTEs maps host-virtual page number -> frame id for resident pages
	// (the paper's kernel module extracts exactly this from the kvm-vm
	// device's private data).
	HostPTEs map[uint64]uint32
	// Overhead is the VM process's own mapped range.
	OverheadStart, OverheadEnd uint64
	// Kernel-owned guest pages by class.
	KernelPages []KernelPageDump
	// Processes are the guest's user processes with their VMAs and guest
	// page tables (what crash extracts from the guest dump).
	Processes []ProcessDump
}

// KernelPageDump tags one kernel-owned guest page.
type KernelPageDump struct {
	GPFN  uint64
	Class string
}

// ProcessDump is one guest process.
type ProcessDump struct {
	PID    int
	Name   string
	IsJava bool
	VMAs   []VMADump
	// PTEs maps guest-virtual page -> guest physical page.
	PTEs map[uint64]uint64
}

// VMADump is one memory area.
type VMADump struct {
	Start, End uint64
	Category   string
	Label      string
	File       string
}

// Capture freezes the cluster state: the host's frames and every kernel's
// VM process on it.
func Capture(host *hypervisor.Host, kernels []*guestos.Kernel) *Dump {
	d := &Dump{
		Version:        FormatVersion,
		HostName:       host.Name(),
		PageSize:       host.PageSize(),
		FrameChecksums: make(map[uint32]uint64),
	}
	pm := host.Phys()
	for _, k := range kernels {
		vm := k.VM()
		gd := GuestDump{
			Name:        vm.Name(),
			ID:          vm.ID(),
			GuestPages:  vm.GuestPages(),
			MemslotBase: uint64(vm.MemslotBase()),
			HostPTEs:    make(map[uint64]uint32),
		}
		os, oe := vm.OverheadRegion()
		gd.OverheadStart, gd.OverheadEnd = uint64(os), uint64(oe)

		vm.HostPageTable().Range(func(vpn mem.VPN, pte mem.PTE) bool {
			if pte.Swapped {
				return true
			}
			f := uint32(pte.Frame)
			gd.HostPTEs[uint64(vpn)] = f
			if _, seen := d.FrameChecksums[f]; !seen {
				d.FrameChecksums[f] = pm.Checksum(pte.Frame)
			}
			return true
		})

		for _, kp := range k.KernelOwnedPages() {
			gd.KernelPages = append(gd.KernelPages, KernelPageDump{GPFN: kp.GPFN, Class: string(kp.Class)})
		}

		for _, p := range k.Processes() {
			pd := ProcessDump{PID: p.PID, Name: p.Name, IsJava: p.IsJava, PTEs: make(map[uint64]uint64)}
			for _, v := range p.SortedVMAs() {
				file := ""
				if v.File != nil {
					file = v.File.Path
				}
				pd.VMAs = append(pd.VMAs, VMADump{
					Start: uint64(v.Start), End: uint64(v.End),
					Category: v.Category, Label: v.Label, File: file,
				})
			}
			p.PageTable().Range(func(vpn mem.VPN, pte mem.PTE) bool {
				pd.PTEs[uint64(vpn)] = uint64(pte.Frame)
				return true
			})
			gd.Processes = append(gd.Processes, pd)
		}
		d.Guests = append(d.Guests, gd)
	}
	return d
}

// Write serializes the dump (gob, gzip-compressed).
func (d *Dump) Write(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(d); err != nil {
		return fmt.Errorf("dump: encode: %w", err)
	}
	return zw.Close()
}

// Read deserializes a dump and checks its format version.
func Read(r io.Reader) (*Dump, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("dump: gzip: %w", err)
	}
	defer zr.Close()
	var d Dump
	if err := gob.NewDecoder(zr).Decode(&d); err != nil {
		return nil, fmt.Errorf("dump: decode: %w", err)
	}
	if d.Version != FormatVersion {
		return nil, fmt.Errorf("dump: format version %d, want %d", d.Version, FormatVersion)
	}
	return &d, nil
}

// Bytes serializes to a byte slice.
func (d *Dump) Bytes() []byte {
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		panic(err) // cannot fail on a bytes.Buffer
	}
	return buf.Bytes()
}

// FromBytes deserializes from a byte slice.
func FromBytes(b []byte) (*Dump, error) {
	return Read(bytes.NewReader(b))
}

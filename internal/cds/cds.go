// Package cds implements the class sharing mechanism of §4 of the paper:
// J9 "shared classes" / HotSpot Class Data Sharing. A cache image holds the
// read-only part of each class (the ROMClass: bytecode, constant pool,
// string literals) packed at fixed offsets behind a header. The image is
// persisted as a file; the paper's technique copies that one file into every
// guest VM so all JVMs map byte-identical, identically-laid-out pages, which
// KSM can then merge across VMs.
//
// The writable runtime part of a class (method tables, resolution state)
// stays in each JVM's private memory — the cache only captures what is
// position-independent and read-only, as J9's ROMClass design does.
package cds

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/classlib"
	"repro/internal/mem"
)

// entryAlign aligns ROMClass blobs inside the image. J9 aligns shared cache
// items; 64 bytes keeps entries from straddling cache lines without padding
// the image excessively.
const entryAlign = 64

// headerBytes reserves space at the front of the image for the cache
// directory metadata (one page keeps the first ROMClass page-aligned).
const headerBytes = 4096

// Entry records where one class's read-only bytes live in the image.
type Entry struct {
	Name   string
	Offset int64
	Size   int
}

// Image is a populated shared class cache.
type Image struct {
	// Name is the cache name (-Xshareclasses:name=...). WAS uses one
	// predefined name so all WAS processes attach to the same cache.
	Name string
	// Version ties the cache to a JVM/corpus version; a mismatch would make
	// a real JVM discard the cache.
	Version string
	// Capacity is the configured cache size in bytes (Table III:
	// 120 MB for the WAS workloads, 25 MB for Tuscany).
	Capacity int64

	entries []Entry
	index   map[string]int
	used    int64

	// Overflowed lists classes that did not fit once the cache filled.
	Overflowed []string
}

// Build populates a cache image from a cold run that loads classes in the
// given order (the paper: "run the middleware installed in the base image
// once"). Classes that exceed the remaining capacity overflow and stay
// unshared, as in a real undersized cache.
func Build(name, version string, capacity int64, loadOrder []*classlib.Class) *Image {
	if capacity <= headerBytes {
		panic(fmt.Sprintf("cds: capacity %d smaller than header", capacity))
	}
	img := &Image{
		Name:     name,
		Version:  version,
		Capacity: capacity,
		index:    make(map[string]int),
		used:     headerBytes,
	}
	for _, cl := range loadOrder {
		if _, dup := img.index[cl.Name]; dup {
			continue
		}
		sz := int64((cl.ROMSize + entryAlign - 1) / entryAlign * entryAlign)
		if img.used+sz > capacity {
			img.Overflowed = append(img.Overflowed, cl.Name)
			continue
		}
		img.index[cl.Name] = len(img.entries)
		img.entries = append(img.entries, Entry{Name: cl.Name, Offset: img.used, Size: cl.ROMSize})
		img.used += sz
	}
	return img
}

// Lookup finds a class's entry in the cache.
func (img *Image) Lookup(name string) (Entry, bool) {
	i, ok := img.index[name]
	if !ok {
		return Entry{}, false
	}
	return img.entries[i], true
}

// Entries returns all entries in layout order.
func (img *Image) Entries() []Entry { return img.entries }

// UsedBytes reports the populated prefix of the cache.
func (img *Image) UsedBytes() int64 { return img.used }

// ClassCount reports how many classes the cache holds.
func (img *Image) ClassCount() int { return len(img.entries) }

// FileBytes serializes the image: a directory header followed by each
// class's read-only bytes at its recorded offset. The bytes depend only on
// the corpus content and the load order of the populating run, so the same
// cold run always produces a byte-identical file — the property that makes
// copying the file to every VM yield identical pages.
//
// The returned slice is the full capacity; the unpopulated tail is zero.
func (img *Image) FileBytes(corpus *classlib.Corpus) []byte {
	data := make([]byte, img.Capacity)
	img.writeHeader(data[:headerBytes])
	for _, e := range img.entries {
		cl, ok := corpus.Class(e.Name)
		if !ok {
			panic(fmt.Sprintf("cds: class %q not in corpus", e.Name))
		}
		mem.Fill(data[e.Offset:e.Offset+int64(e.Size)], cl.Seed)
	}
	return data
}

// writeHeader encodes a deterministic directory digest. A real cache stores
// a hash table of names; a digest of the sorted (name, offset) pairs is
// enough for the simulation and keeps the header identical for identical
// populations.
func (img *Image) writeHeader(dst []byte) {
	copy(dst, "J9SCv1\x00\x00")
	binary.LittleEndian.PutUint64(dst[8:], uint64(len(img.entries)))
	binary.LittleEndian.PutUint64(dst[16:], uint64(img.used))
	names := make([]string, 0, len(img.entries))
	for _, e := range img.entries {
		names = append(names, fmt.Sprintf("%s@%d+%d", e.Name, e.Offset, e.Size))
	}
	sort.Strings(names)
	var digest mem.Seed = mem.HashString(img.Name + img.Version)
	for _, n := range names {
		digest = mem.Combine(digest, mem.HashString(n))
	}
	binary.LittleEndian.PutUint64(dst[24:], uint64(digest))
	mem.Fill(dst[32:], digest) // fill the rest of the header page deterministically
}

// Validate checks an image against the runtime that wants to attach it: a
// real JVM refuses a cache created by a different JVM level or sized
// differently than configured (it would silently rebuild it; we surface the
// mismatch so experiments fail loudly instead of measuring the wrong
// setup). It returns nil when the cache is attachable.
func (img *Image) Validate(runtimeVersion string, wantCapacity int64) error {
	if img.Version != runtimeVersion {
		return fmt.Errorf("cds: cache %q built for %q, runtime is %q", img.Name, img.Version, runtimeVersion)
	}
	if wantCapacity > 0 && img.Capacity != wantCapacity {
		return fmt.Errorf("cds: cache %q capacity %d, configured %d", img.Name, img.Capacity, wantCapacity)
	}
	if img.used > img.Capacity {
		return fmt.Errorf("cds: cache %q corrupt: used %d exceeds capacity %d", img.Name, img.used, img.Capacity)
	}
	return nil
}

// VerifyFile checks that file bytes look like a serialized image of this
// cache: magic, entry count and population watermark must match the
// directory. It guards the "copy the file to all of the VMs" step against
// shipping the wrong artifact.
func (img *Image) VerifyFile(data []byte) error {
	if int64(len(data)) != img.Capacity {
		return fmt.Errorf("cds: file is %d bytes, cache capacity %d", len(data), img.Capacity)
	}
	if string(data[:6]) != "J9SCv1" {
		return fmt.Errorf("cds: bad magic %q", data[:6])
	}
	if n := binary.LittleEndian.Uint64(data[8:]); n != uint64(len(img.entries)) {
		return fmt.Errorf("cds: file has %d entries, directory has %d", n, len(img.entries))
	}
	if u := binary.LittleEndian.Uint64(data[16:]); u != uint64(img.used) {
		return fmt.Errorf("cds: file watermark %d, directory %d", u, img.used)
	}
	return nil
}

// PagesSpanned reports which page indexes of the image a given entry
// touches; the JVM faults exactly these when the class is used.
func (e Entry) PagesSpanned(pageSize int) (first, last int) {
	first = int(e.Offset / int64(pageSize))
	last = int((e.Offset + int64(e.Size) - 1) / int64(pageSize))
	return first, last
}

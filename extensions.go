package tpsim

import (
	"io"

	"repro/internal/dump"
)

// System dumps (§2.B): capture a cluster's full translation state into a
// serializable snapshot and analyze it offline, like the paper's
// crash/virsh-dump workflow.

// Dump is a frozen, serializable snapshot of a cluster's memory state.
type Dump = dump.Dump

// CaptureDump freezes the cluster (all three translation layers of every
// guest plus frame checksums).
func CaptureDump(c *Cluster) *Dump {
	return dump.Capture(c.Host, c.Kernels)
}

// ReadDump loads a serialized dump.
func ReadDump(r io.Reader) (*Dump, error) { return dump.Read(r) }

// AnalyzeDump runs the owner-oriented attribution offline; results are
// identical to Cluster.Analyze on the live state.
func AnalyzeDump(d *Dump) *dump.Analysis { return dump.Analyze(d) }

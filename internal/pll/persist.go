package pll

import (
	"fmt"
	"io"

	"repro/internal/labelstore"
	"repro/internal/persist"
)

// Snapshots use the shared internal/persist container (format "pll",
// version 2): fixed-width aligned sections carrying the flat labelstore
// arrays verbatim, plus a trailing checksum, so FromMapped binds the
// arrays as zero-copy views whether persist.OpenMapped page-mapped the
// file or persist.ReadMapped read it from a stream:
//
//	meta   — name, n, label encoding word (always 0), per-direction
//	         entry counts
//	rank   — rank[n], 4-byte aligned
//	inoff/outoff — CSR offset tables, 4-byte aligned
//	inlab/outlab — flat label arrays, 4-byte aligned
//	crc32  — CRC-32C of everything above
//
// Version 1 (one streamed section of per-vertex label lists, no
// checksum) is refused, and so is a version-2 file whose encoding word
// is 1 (delta-varint label streams in indata/outdata sections, a layout
// earlier builds could write): a snapshot caches a deterministic build,
// so rebuild it. Labels are positional 2-hop facts about a specific graph;
// the caller is responsible for pairing a snapshot with the graph it was
// built from (as with any external index file in a DBMS).
const (
	persistFormat  = "pll"
	persistVersion = 2
	// The meta section's label encoding word.
	flatLabels   = 0
	varintLabels = 1
)

// WriteTo serializes the index. The writer must be positioned at the
// start of the file (alignment is computed from the file origin).
// Returns the number of bytes written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	pw := persist.NewWriter(w, persistFormat, persistVersion)
	pw.Section("meta", func(e *persist.Encoder) {
		e.String(ix.name)
		e.U32(uint32(len(ix.rank)))
		e.U32(flatLabels)
		e.U64(uint64(ix.in.Entries()))
		e.U64(uint64(ix.out.Entries()))
	})
	pw.U32s("rank", ix.rank)
	inOff, inLab := ix.in.Parts()
	outOff, outLab := ix.out.Parts()
	pw.U32s("inoff", inOff)
	pw.U32s("outoff", outOff)
	pw.U32s("inlab", inLab)
	pw.U32s("outlab", outLab)
	pw.Checksum()
	return pw.Close()
}

// FromMapped binds a snapshot opened with persist.OpenMapped or read with
// persist.ReadMapped as a zero-copy index: the rank array, offset tables,
// and label payloads are views into the snapshot's bytes (mapped pages
// fault in as queries touch them). The index pins the Mapped for its
// lifetime. The checksum persist verified guards against corruption; the
// offset tables and every label row are still validated here, so a
// well-checksummed file holding impossible labels fails with an error
// instead of answering wrong.
func FromMapped(m *persist.Mapped) (*Index, error) {
	if m.Format() != persistFormat {
		return nil, fmt.Errorf("pll: snapshot has format %q, want %q", m.Format(), persistFormat)
	}
	if m.Version() != persistVersion {
		return nil, fmt.Errorf("pll: snapshot version %d is not the layout this build reads (version %d); delete the snapshot file and rebuild the index", m.Version(), persistVersion)
	}
	meta, err := m.Section("meta")
	if err != nil {
		return nil, err
	}
	name := meta.String()
	n := meta.U32()
	enc := meta.U32()
	inEntries, outEntries := meta.U64(), meta.U64()
	if err := meta.Close(); err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("pll: implausible vertex count %d", n)
	}
	switch enc {
	case flatLabels:
	case varintLabels:
		return nil, fmt.Errorf("pll: snapshot stores its labels in the delta-varint encoding, which this build no longer reads; delete the snapshot file and rebuild the index")
	default:
		return nil, fmt.Errorf("pll: unknown label encoding %d", enc)
	}
	ix := &Index{name: name, backing: m}
	if ix.rank, err = m.U32s("rank"); err != nil {
		return nil, err
	}
	if uint32(len(ix.rank)) != n {
		return nil, fmt.Errorf("pll: rank section has %d entries, want %d", len(ix.rank), n)
	}
	// labels binds one direction's store and checks it holds the entry
	// count the meta section declares.
	labels := func(dir string, want uint64) (*labelstore.Store, error) {
		off, err := m.U32s(dir + "off")
		if err != nil {
			return nil, err
		}
		lab, err := m.U32s(dir + "lab")
		if err != nil {
			return nil, err
		}
		s, err := labelstore.FromParts(int(n), off, lab)
		if err != nil {
			return nil, fmt.Errorf("pll: %s labels: %w", dir, err)
		}
		if uint64(s.Entries()) != want {
			return nil, fmt.Errorf("pll: %s labels hold %d entries, meta says %d", dir, s.Entries(), want)
		}
		return s, nil
	}
	if ix.in, err = labels("in", inEntries); err != nil {
		return nil, err
	}
	if ix.out, err = labels("out", outEntries); err != nil {
		return nil, err
	}
	ix.refreshStats()
	return ix, nil
}

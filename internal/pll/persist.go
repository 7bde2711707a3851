package pll

import (
	"fmt"
	"io"

	"repro/internal/labelstore"
	"repro/internal/persist"
)

// Snapshots use the shared internal/persist container (format "pll") in
// two layouts:
//
// Version 1 — the streaming codec (WriteTo):
//
//	meta   — index name, vertex count n
//	rank   — the total order, rank[n]
//	labels — per vertex: in-label ranks, out-label ranks
//
// Version 2 — the mapped layout (WriteMapped): fixed-width aligned
// sections carrying the flat labelstore arrays verbatim, plus a trailing
// checksum, so persist.OpenMapped can hand the arrays back as zero-copy
// views (FromMapped) and cold start without a decode pass:
//
//	meta   — name, n, encoding, per-direction entry counts
//	rank   — rank[n], 4-byte aligned
//	inoff/outoff   — CSR offset tables, 4-byte aligned
//	inlab/outlab   — raw label arrays (Raw encoding), 4-byte aligned
//	indata/outdata — varint label streams (Varint encoding)
//	crc32  — CRC-32C of everything above
//
// Read accepts both versions. Labels are positional 2-hop facts about a
// specific graph; the caller is responsible for pairing a snapshot with
// the graph it was built from (as with any external index file in a
// DBMS).
const (
	persistFormat     = "pll"
	persistVersion    = 1
	persistVersionMap = 2
)

// WriteTo serializes the index in the version-1 streaming codec. It
// returns the number of bytes written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	pw := persist.NewWriter(w, persistFormat, persistVersion)
	pw.Section("meta", func(e *persist.Encoder) {
		e.String(ix.name)
		e.U32(uint32(len(ix.rank)))
	})
	pw.Section("rank", func(e *persist.Encoder) {
		e.U32s(ix.rank)
	})
	pw.Section("labels", func(e *persist.Encoder) {
		var row []uint32
		for v := range ix.rank {
			row = ix.in.AppendRow(row[:0], v)
			e.U32s(row)
			row = ix.out.AppendRow(row[:0], v)
			e.U32s(row)
		}
	})
	return pw.Close()
}

// WriteMapped serializes the index in the version-2 mapped layout. The
// writer must be positioned at the start of the file (alignment is
// computed from the file origin). Returns the number of bytes written.
func (ix *Index) WriteMapped(w io.Writer) (int64, error) {
	pw := persist.NewWriter(w, persistFormat, persistVersionMap)
	pw.Section("meta", func(e *persist.Encoder) {
		e.String(ix.name)
		e.U32(uint32(len(ix.rank)))
		e.U32(uint32(ix.in.Encoding()))
		e.U64(uint64(ix.in.Entries()))
		e.U64(uint64(ix.out.Entries()))
	})
	pw.AlignedU32s("rank", ix.rank)
	inOff, inLab, inData := ix.in.Parts()
	outOff, outLab, outData := ix.out.Parts()
	pw.AlignedU32s("inoff", inOff)
	pw.AlignedU32s("outoff", outOff)
	if ix.in.Encoding() == labelstore.Raw {
		pw.AlignedU32s("inlab", inLab)
		pw.AlignedU32s("outlab", outLab)
	} else {
		pw.AlignedBytes("indata", 1, inData)
		pw.AlignedBytes("outdata", 1, outData)
	}
	pw.Checksum()
	return pw.Close()
}

// Read deserializes an index previously written with WriteTo (v1) or
// WriteMapped (v2) from a stream — the decode path. For page-mapped
// loading of v2 snapshots use persist.OpenMapped + FromMapped.
func Read(r io.Reader) (*Index, error) {
	pr, err := persist.NewReader(r, persistFormat, persistVersionMap)
	if err != nil {
		return nil, err
	}
	return readSections(pr)
}

// ReadSections deserializes from an already-opened container whose
// format was sniffed by the caller (persist.NewReaderAny).
func ReadSections(pr *persist.Reader) (*Index, error) {
	if pr.Version() > persistVersionMap {
		return nil, fmt.Errorf("pll: snapshot version %d not supported (max %d)", pr.Version(), persistVersionMap)
	}
	return readSections(pr)
}

func readSections(pr *persist.Reader) (*Index, error) {
	if pr.Version() >= persistVersionMap {
		return readV2(pr)
	}
	return readV1(pr)
}

func readV1(pr *persist.Reader) (*Index, error) {
	meta, err := pr.Section("meta")
	if err != nil {
		return nil, err
	}
	name := meta.String()
	n := meta.U32()
	if err := meta.Close(); err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("pll: implausible vertex count %d", n)
	}
	ix := &Index{name: name}
	rank, err := pr.Section("rank")
	if err != nil {
		return nil, err
	}
	ix.rank = rank.U32s()
	if err := rank.Close(); err != nil {
		return nil, err
	}
	if uint32(len(ix.rank)) != n {
		return nil, fmt.Errorf("pll: rank section has %d entries, want %d", len(ix.rank), n)
	}
	labels, err := pr.Section("labels")
	if err != nil {
		return nil, err
	}
	bin := labelstore.NewBuilder(int(n))
	bout := labelstore.NewBuilder(int(n))
	defer bin.Release()
	defer bout.Release()
	for v := 0; v < int(n); v++ {
		lin := labels.U32s()
		lout := labels.U32s()
		if labels.Err() != nil {
			return nil, labels.Err()
		}
		if uint32(len(lin)) > n || uint32(len(lout)) > n {
			return nil, fmt.Errorf("pll: label list longer than n")
		}
		for _, r := range lin {
			bin.Append(v, r)
		}
		for _, r := range lout {
			bout.Append(v, r)
		}
	}
	if err := labels.Close(); err != nil {
		return nil, err
	}
	ix.in = bin.Freeze(labelstore.Raw)
	ix.out = bout.Freeze(labelstore.Raw)
	ix.refreshStats()
	return ix, nil
}

// v2Meta carries the v2 meta section fields shared by the streaming and
// mapped readers.
type v2Meta struct {
	name                  string
	n                     uint32
	enc                   labelstore.Encoding
	inEntries, outEntries uint64
}

func readV2Meta(meta *persist.Decoder) (v2Meta, error) {
	var m v2Meta
	m.name = meta.String()
	m.n = meta.U32()
	enc := meta.U32()
	m.inEntries = meta.U64()
	m.outEntries = meta.U64()
	if err := meta.Close(); err != nil {
		return m, err
	}
	if m.n > 1<<30 {
		return m, fmt.Errorf("pll: implausible vertex count %d", m.n)
	}
	if enc != uint32(labelstore.Raw) && enc != uint32(labelstore.Varint) {
		return m, fmt.Errorf("pll: unknown label encoding %d", enc)
	}
	m.enc = labelstore.Encoding(enc)
	if m.inEntries > uint64(m.n)*uint64(m.n) || m.outEntries > uint64(m.n)*uint64(m.n) {
		return m, fmt.Errorf("pll: implausible entry counts %d/%d", m.inEntries, m.outEntries)
	}
	return m, nil
}

func readV2(pr *persist.Reader) (*Index, error) {
	meta, err := pr.Section("meta")
	if err != nil {
		return nil, err
	}
	m, err := readV2Meta(meta)
	if err != nil {
		return nil, err
	}
	ix := &Index{name: m.name}
	readU32s := func(name string) ([]uint32, error) {
		d, err := pr.Section(name)
		if err != nil {
			return nil, err
		}
		vs := d.AlignedU32s()
		return vs, d.Close()
	}
	if ix.rank, err = readU32s("rank"); err != nil {
		return nil, err
	}
	if uint32(len(ix.rank)) != m.n {
		return nil, fmt.Errorf("pll: rank section has %d entries, want %d", len(ix.rank), m.n)
	}
	inOff, err := readU32s("inoff")
	if err != nil {
		return nil, err
	}
	outOff, err := readU32s("outoff")
	if err != nil {
		return nil, err
	}
	n := int(m.n)
	if m.enc == labelstore.Raw {
		inLab, err := readU32s("inlab")
		if err != nil {
			return nil, err
		}
		outLab, err := readU32s("outlab")
		if err != nil {
			return nil, err
		}
		if ix.in, err = labelstore.FromParts(n, inOff, inLab); err != nil {
			return nil, fmt.Errorf("pll: in labels: %w", err)
		}
		if ix.out, err = labelstore.FromParts(n, outOff, outLab); err != nil {
			return nil, fmt.Errorf("pll: out labels: %w", err)
		}
	} else {
		readBytes := func(name string) ([]byte, error) {
			d, err := pr.Section(name)
			if err != nil {
				return nil, err
			}
			b := d.AlignedBytes()
			return b, d.Close()
		}
		inData, err := readBytes("indata")
		if err != nil {
			return nil, err
		}
		outData, err := readBytes("outdata")
		if err != nil {
			return nil, err
		}
		// Streamed (non-checksummed) loads fully validate the streams.
		if ix.in, err = labelstore.FromEncoded(n, inOff, inData, int(m.inEntries), true); err != nil {
			return nil, fmt.Errorf("pll: in labels: %w", err)
		}
		if ix.out, err = labelstore.FromEncoded(n, outOff, outData, int(m.outEntries), true); err != nil {
			return nil, fmt.Errorf("pll: out labels: %w", err)
		}
	}
	ix.refreshStats()
	return ix, nil
}

// FromMapped binds a version-2 snapshot opened with persist.OpenMapped
// as a zero-copy index: the rank array, offset tables, and label
// payloads are views into the mapping (pages fault in as queries touch
// them). The index pins the mapping for its lifetime. The mapping's
// whole-file checksum (verified by OpenMapped) stands in for the
// per-field validation the streaming reader performs.
func FromMapped(m *persist.Mapped) (*Index, error) {
	if m.Format() != persistFormat {
		return nil, fmt.Errorf("pll: mapped snapshot has format %q, want %q", m.Format(), persistFormat)
	}
	if m.Version() != persistVersionMap {
		return nil, fmt.Errorf("pll: mapped snapshot version %d not supported (want %d)", m.Version(), persistVersionMap)
	}
	meta, err := m.Section("meta")
	if err != nil {
		return nil, err
	}
	mm, err := readV2Meta(meta)
	if err != nil {
		return nil, err
	}
	ix := &Index{name: mm.name, backing: m}
	if ix.rank, err = m.U32s("rank"); err != nil {
		return nil, err
	}
	if uint32(len(ix.rank)) != mm.n {
		return nil, fmt.Errorf("pll: rank section has %d entries, want %d", len(ix.rank), mm.n)
	}
	inOff, err := m.U32s("inoff")
	if err != nil {
		return nil, err
	}
	outOff, err := m.U32s("outoff")
	if err != nil {
		return nil, err
	}
	n := int(mm.n)
	if mm.enc == labelstore.Raw {
		inLab, err := m.U32s("inlab")
		if err != nil {
			return nil, err
		}
		outLab, err := m.U32s("outlab")
		if err != nil {
			return nil, err
		}
		if ix.in, err = labelstore.FromParts(n, inOff, inLab); err != nil {
			return nil, fmt.Errorf("pll: in labels: %w", err)
		}
		if ix.out, err = labelstore.FromParts(n, outOff, outLab); err != nil {
			return nil, fmt.Errorf("pll: out labels: %w", err)
		}
	} else {
		inData, err := m.Bytes("indata")
		if err != nil {
			return nil, err
		}
		outData, err := m.Bytes("outdata")
		if err != nil {
			return nil, err
		}
		if ix.in, err = labelstore.FromEncoded(n, inOff, inData, int(mm.inEntries), false); err != nil {
			return nil, fmt.Errorf("pll: in labels: %w", err)
		}
		if ix.out, err = labelstore.FromEncoded(n, outOff, outData, int(mm.outEntries), false); err != nil {
			return nil, fmt.Errorf("pll: out labels: %w", err)
		}
	}
	ix.refreshStats()
	return ix, nil
}

package graph

import (
	"fmt"
	"io"

	"repro/internal/persist"
)

// Graph snapshots persist the CSR arrays themselves — succOff/succ,
// predOff/pred, and (for labeled graphs) the parallel label arrays — in
// the shared persist container (format "graph") using the aligned mapped
// layout, so a serving process warm start page-maps the adjacency instead
// of re-parsing the edge-list text and re-running Freeze:
//
//	meta       — n, m, numLabels, flags
//	vertnames  — optional vertex-name registry
//	labelnames — optional label-name registry
//	succoff/succ, predoff/pred — CSR arrays, 4-byte aligned
//	succlab/predlab            — label arrays (labeled only), 2-byte aligned
//	crc32      — CRC-32C of everything above
//
// FromMapped is the one reader: LoadSnapshot page-maps the file (reading
// it into memory where mmap is unavailable) and hands the Digraph
// zero-copy views. Because the views drive slice indexing all over the
// query path, FromMapped validates the CSR structure (offset
// monotonicity, vertex and label bounds) before the graph is trusted —
// the checksum guards against corruption, the validation against a
// well-checksummed file holding an impossible graph.
const (
	persistFormat  = "graph"
	persistVersion = 1
)

const flagLabeled = 1 << 0

// WriteSnapshot serializes g in the mapped snapshot layout. The writer
// must be positioned at the start of the file (section alignment is
// computed from the file origin). Returns the number of bytes written.
func (g *Digraph) WriteSnapshot(w io.Writer) (int64, error) {
	pw := persist.NewWriter(w, persistFormat, persistVersion)
	pw.Section("meta", func(e *persist.Encoder) {
		e.U32(uint32(g.n))
		e.U64(uint64(g.m))
		e.U32(uint32(g.numLabels))
		var flags uint32
		if g.Labeled() {
			flags |= flagLabeled
		}
		e.U32(flags)
	})
	writeNames := func(name string, names []string) {
		pw.Section(name, func(e *persist.Encoder) {
			e.U32(uint32(len(names)))
			for _, s := range names {
				e.String(s)
			}
		})
	}
	writeNames("vertnames", g.vertName)
	writeNames("labelnames", g.labelName)
	pw.U32s("succoff", g.succOff)
	pw.U32s("succ", g.succ)
	pw.U32s("predoff", g.predOff)
	pw.U32s("pred", g.pred)
	if g.Labeled() {
		pw.U16s("succlab", g.succLab)
		pw.U16s("predlab", g.predLab)
	}
	pw.Checksum()
	return pw.Close()
}

// snapMeta carries the meta-section fields.
type snapMeta struct {
	n         int
	m         uint64
	numLabels int
	labeled   bool
}

func readSnapMeta(meta *persist.Decoder) (snapMeta, error) {
	var sm snapMeta
	n := meta.U32()
	m := meta.U64()
	numLabels := meta.U32()
	flags := meta.U32()
	if err := meta.Close(); err != nil {
		return sm, err
	}
	if n > 1<<30 {
		return sm, fmt.Errorf("graph: snapshot has implausible vertex count %d", n)
	}
	if m > uint64(n)*uint64(n)*2 {
		return sm, fmt.Errorf("graph: snapshot has implausible edge count %d", m)
	}
	if numLabels > MaxLabels {
		return sm, fmt.Errorf("graph: snapshot declares %d labels (max %d)", numLabels, MaxLabels)
	}
	sm.n, sm.m = int(n), m
	sm.numLabels = int(numLabels)
	sm.labeled = flags&flagLabeled != 0
	return sm, nil
}

// assemble validates the decoded arrays against the meta fields and
// produces the Digraph. All structural invariants the query path indexes
// by are checked here, so a hostile snapshot fails with an error instead
// of an out-of-range panic mid-query.
func assemble(sm snapMeta, vertName, labelName []string,
	succOff, succ, predOff, pred []uint32, succLab, predLab []uint16) (*Digraph, error) {
	m := int(sm.m)
	checkCSR := func(side string, off, adj []uint32) error {
		if len(off) != sm.n+1 {
			return fmt.Errorf("graph: snapshot %s offsets have %d entries, want %d", side, len(off), sm.n+1)
		}
		if len(adj) != m {
			return fmt.Errorf("graph: snapshot %s adjacency has %d entries, want %d", side, len(adj), m)
		}
		if off[0] != 0 || int(off[sm.n]) != m {
			return fmt.Errorf("graph: snapshot %s offsets do not span [0, %d]", side, m)
		}
		for v := 0; v < sm.n; v++ {
			if off[v] > off[v+1] {
				return fmt.Errorf("graph: snapshot %s offsets decrease at vertex %d", side, v)
			}
		}
		for _, w := range adj {
			if int(w) >= sm.n {
				return fmt.Errorf("graph: snapshot %s adjacency references vertex %d of %d", side, w, sm.n)
			}
		}
		return nil
	}
	if err := checkCSR("succ", succOff, succ); err != nil {
		return nil, err
	}
	if err := checkCSR("pred", predOff, pred); err != nil {
		return nil, err
	}
	if sm.labeled {
		if len(succLab) != m || len(predLab) != m {
			return nil, fmt.Errorf("graph: snapshot label arrays have %d/%d entries, want %d", len(succLab), len(predLab), m)
		}
		for _, l := range succLab {
			if int(l) >= sm.numLabels {
				return nil, fmt.Errorf("graph: snapshot label %d out of universe %d", l, sm.numLabels)
			}
		}
		for _, l := range predLab {
			if int(l) >= sm.numLabels {
				return nil, fmt.Errorf("graph: snapshot label %d out of universe %d", l, sm.numLabels)
			}
		}
	} else {
		succLab, predLab = nil, nil
	}
	if len(vertName) > sm.n {
		return nil, fmt.Errorf("graph: snapshot has %d vertex names for %d vertices", len(vertName), sm.n)
	}
	if len(labelName) > sm.numLabels {
		return nil, fmt.Errorf("graph: snapshot has %d label names for %d labels", len(labelName), sm.numLabels)
	}
	return &Digraph{
		n: sm.n, m: m,
		succOff: succOff, succ: succ, succLab: succLab,
		predOff: predOff, pred: pred, predLab: predLab,
		numLabels: sm.numLabels,
		labelName: labelName, vertName: vertName,
		names: &nameIndex{},
	}, nil
}

func readNames(d *persist.Decoder, limit int) ([]string, error) {
	count := d.U32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if int(count) > limit {
		return nil, fmt.Errorf("graph: snapshot name table has %d entries (limit %d)", count, limit)
	}
	var names []string
	if count > 0 {
		names = make([]string, count)
		for i := range names {
			names[i] = d.String()
		}
	}
	return names, d.Close()
}

// FromMapped binds a snapshot opened with persist.OpenMapped (or read
// with persist.ReadMapped) as a zero-copy Digraph: the CSR arrays are
// views into the snapshot's bytes (mapped pages fault in as traversals
// touch them). The graph pins the Mapped for its lifetime.
func FromMapped(m *persist.Mapped) (*Digraph, error) {
	if m.Format() != persistFormat {
		return nil, fmt.Errorf("graph: snapshot has format %q, want %q", m.Format(), persistFormat)
	}
	if m.Version() != persistVersion {
		return nil, fmt.Errorf("graph: snapshot version %d not supported (want %d)", m.Version(), persistVersion)
	}
	meta, err := m.Section("meta")
	if err != nil {
		return nil, err
	}
	sm, err := readSnapMeta(meta)
	if err != nil {
		return nil, err
	}
	names := func(section string, limit int) ([]string, error) {
		d, err := m.Section(section)
		if err != nil {
			return nil, err
		}
		return readNames(d, limit)
	}
	vertName, err := names("vertnames", sm.n)
	if err != nil {
		return nil, err
	}
	labelName, err := names("labelnames", sm.numLabels)
	if err != nil {
		return nil, err
	}
	succOff, err := m.U32s("succoff")
	if err != nil {
		return nil, err
	}
	succ, err := m.U32s("succ")
	if err != nil {
		return nil, err
	}
	predOff, err := m.U32s("predoff")
	if err != nil {
		return nil, err
	}
	pred, err := m.U32s("pred")
	if err != nil {
		return nil, err
	}
	var succLab, predLab []uint16
	if sm.labeled {
		if succLab, err = m.U16s("succlab"); err != nil {
			return nil, err
		}
		if predLab, err = m.U16s("predlab"); err != nil {
			return nil, err
		}
	}
	g, err := assemble(sm, vertName, labelName, succOff, succ, predOff, pred, succLab, predLab)
	if err != nil {
		return nil, err
	}
	g.backing = m
	return g, nil
}

// LoadSnapshot opens the snapshot file at path as a zero-copy Digraph:
// the file is mmap'd (read-only, shared — page cache shared across shard
// processes) and the CSR arrays are views into the mapping. The file's
// whole-body CRC-32C is verified before any view is trusted; corruption
// or truncation yields an error, never a panic. On platforms without
// mmap the file is read into memory instead.
func LoadSnapshot(path string) (*Digraph, error) {
	m, err := persist.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	g, err := FromMapped(m)
	if err != nil {
		m.Close()
		return nil, err
	}
	return g, nil
}

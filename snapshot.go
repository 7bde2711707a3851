package reach

// Index snapshots: persist a built index and warm-start from it instead
// of rebuilding on every process start. Rebuild cost dominates at scale
// (the FERRARI line of work budgets index size precisely because of it),
// so the serving layer (cmd/reachserve) saves its plain index after a
// fresh build and loads it on the next start — the load is one linear
// pass over the file, visible in build spans as "index/load" instead of
// "index/build".
//
// One layout exists per snapshottable kind: SaveIndex writes fixed-width
// aligned array sections plus a whole-snapshot CRC-32C. LoadIndex reads
// it from a stream into a line-aligned heap buffer; LoadIndexMapped
// mmaps the file (reading it into memory where mmap is unavailable).
// Either way the checksum is verified first and the index is then bound
// through one format switch to zero-copy views of its arrays — a cold
// start is a read (or page mapping), a checksum pass and, for 2-hop
// labels, one pass checking every row is ascending — not a decode into
// fresh arrays.
//
// Snapshots are positional facts about one specific graph. Pairing a
// snapshot with the graph it was built from is the caller's
// responsibility, as with any external index file in a DBMS; a
// vertex-count mismatch is detected and reported, deeper mismatches are
// not.

import (
	"fmt"
	"io"

	"repro/internal/bfl"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/pll"
)

// snapshotTarget unwraps ix to the concrete index a snapshot codec
// exists for: *bfl.Index (through any adapter chain — only the DAG-level
// labels are persisted, the condensation is recomputed at load) or a
// directly-built *pll.Index (PLL/DL). A condensation-lifted PLL-family
// index (TFL, HL over a cyclic graph) is refused: its labels are over
// SCC-component ids, and the pll snapshot format re-binds labels to
// original vertex ids, which would silently corrupt answers.
func snapshotTarget(ix Index) (io.WriterTo, error) {
	if ix == nil {
		return nil, fmt.Errorf("%w: nil index", ErrBadOptions)
	}
	condensed := core.IsCondensed(ix)
	inner := ix
	for {
		iw, ok := inner.(interface{ Inner() Index })
		if !ok {
			break
		}
		inner = iw.Inner()
	}
	switch t := inner.(type) {
	case *bfl.Index:
		return t, nil
	case *pll.Index:
		if condensed {
			return nil, fmt.Errorf("%w: index %q is lifted through SCC condensation; its labels are over component ids and cannot be re-bound to the original graph (snapshot the directly-built %q/%q kinds instead)",
				ErrBadOptions, ix.Name(), KindPLL, KindDL)
		}
		return t, nil
	}
	return nil, fmt.Errorf("%w: index %q has no snapshot format (snapshottable kinds: %q)",
		ErrBadOptions, ix.Name(), snapshotKinds())
}

// snapshotKinds lists the kinds Table 1 gives a snapshot format.
func snapshotKinds() []string {
	return core.KindsWhere(func(r core.PlainKind) bool { return r.Snapshot != "" })
}

// SaveIndex writes a snapshot of ix. Snapshottable kinds are KindBFL —
// whether queried directly or through the SCC-condensation adapter (the
// adapter is unwrapped; only the DAG-level labels are persisted, the
// condensation is recomputed at load) — and the directly-built 2-hop
// kinds KindPLL and KindDL. Other kinds report ErrBadOptions. The writer
// must be positioned at the start of the file: section alignment is
// computed from the file origin.
func SaveIndex(w io.Writer, ix Index) error {
	t, err := snapshotTarget(ix)
	if err != nil {
		return err
	}
	_, err = t.WriteTo(w)
	return err
}

// LoadIndex reads a snapshot written by SaveIndex — through its checksum
// section and no further — and re-binds it to g, the same graph the
// saved index was built over. The snapshot kind is read from its header.
// For BFL the SCC condensation is recomputed (or drawn from
// Options.Prepared, exactly like a build); binding is recorded as an
// "index/load" span, so a warm-started timeline never shows an
// "index/build" phase. Corrupt, truncated, or mismatched input yields an
// error, never a panic.
func LoadIndex(r io.Reader, g *Graph, opt Options) (Index, error) {
	if r == nil {
		return nil, fmt.Errorf("%w: nil snapshot reader", ErrBadOptions)
	}
	return loadSnapshot(func() (*persist.Mapped, error) { return persist.ReadMapped(r) }, g, opt)
}

// LoadIndexMapped is LoadIndex from the snapshot file at path, page-mapped
// (read-only, shared) instead of read: the index's label arrays are views
// into the mapping, so cold start faults in pages on demand. On platforms
// without mmap support the file is read into memory instead — same
// views, one up-front copy.
//
// The returned index pins the mapping for its lifetime; the mapping is
// released when the index is garbage collected.
func LoadIndexMapped(path string, g *Graph, opt Options) (Index, error) {
	return loadSnapshot(func() (*persist.Mapped, error) { return persist.OpenMapped(path) }, g, opt)
}

// loadSnapshot opens a snapshot with open — which verifies its checksum —
// and binds it to g by format.
func loadSnapshot(open func() (*persist.Mapped, error), g *Graph, opt Options) (ix Index, err error) {
	if err := checkBuild(nil, g, opt); err != nil {
		return nil, err
	}
	defer core.Recover(&err)
	m, err := open()
	if err != nil {
		return nil, err
	}
	// On any failure past this point the snapshot has no owner yet.
	defer func() {
		if err != nil {
			m.Close()
		}
	}()
	switch m.Format() {
	case "bfl":
		return core.ForGeneralLoaded(g, opt.Spans, opt.Workers, opt.Prepared, func(dag *graph.Digraph) (Index, error) {
			return bfl.FromMapped(m, dag)
		})
	case "pll":
		end := opt.Spans.Start("index/load")
		defer end()
		px, err := pll.FromMapped(m)
		if err != nil {
			return nil, err
		}
		if px.N() != g.N() {
			return nil, fmt.Errorf("pll: snapshot has %d vertices, graph has %d (snapshot built over a different graph?)", px.N(), g.N())
		}
		return px, nil
	}
	return nil, fmt.Errorf("%w: unknown snapshot format %q", ErrBadOptions, m.Format())
}

// IndexSizes reports ix's resident footprint split by section — CSR
// offset tables, label payloads, auxiliary structures (ranks, DFS
// intervals, condensation maps). ok is false for index kinds that do not
// break their footprint down; Stats().Bytes still reports their total.
func IndexSizes(ix Index) (offsets, labels, aux int, ok bool) {
	b, ok := core.SizesOf(ix)
	return b.Offsets, b.Labels, b.Aux, ok
}

package bfl

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/persist"
)

// Snapshots use the shared internal/persist container (format "bfl",
// version 4) in one layout, bound zero-copy by FromMapped whether
// persist.OpenMapped page-mapped the file or persist.ReadMapped read it
// from a stream:
//
//	meta  — vertex count n
//	rec   — n 64-byte records, 64-byte aligned: min, in7 (u32), then
//	        out[4] and in[3] (u64), all little-endian
//	crc32 — CRC-32C of everything above
//
// On a little-endian host the rec section is the record array byte for
// byte. Versions 1 and 2 (separate interval and filter arrays) and 3
// (a DFS postorder word where in7 now is, and a 192-bit Lin) are
// refused: a snapshot caches a deterministic build, so rebuild it.
//
// BFL is a partial index: the guided-DFS fallback needs the graph the
// labels were computed over, so FromMapped re-binds the snapshot to a
// caller-supplied DAG. Pairing a snapshot with the right graph is the
// caller's responsibility (a vertex-count mismatch is detected, other
// mismatches are not — as with any external index file in a DBMS).
const (
	persistFormat  = "bfl"
	persistVersion = 4
)

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WriteTo serializes the index. The section alignment is computed from
// the writer's origin, so a snapshot must be written from the start of
// its file. It returns the number of bytes written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	pw := persist.NewWriter(w, persistFormat, persistVersion)
	pw.Section("meta", func(e *persist.Encoder) {
		e.U32(uint32(len(ix.rec)))
	})
	pw.AlignedBytes("rec", uint32(recordSize), wire(ix.rec))
	pw.Checksum()
	return pw.Close()
}

// recBytes views rec's memory as bytes.
func recBytes(rec []record) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rec))), len(rec)*recordSize)
}

// wire returns rec's little-endian image: the memory itself on a
// little-endian host, a byte-swapped copy otherwise.
func wire(rec []record) []byte {
	if !littleEndian {
		rec = swapped(append([]record(nil), rec...))
	}
	return recBytes(rec)
}

// fromWire decodes a little-endian record image into fresh aligned records.
func fromWire(b []byte) []record {
	rec := makeRecords(len(b) / recordSize)
	copy(recBytes(rec), b)
	if !littleEndian {
		swapped(rec)
	}
	return rec
}

// swapped reverses the bytes of every field of rec in place.
func swapped(rec []record) []record {
	for i := range rec {
		r := &rec[i]
		r.min, r.in7 = bits.ReverseBytes32(r.min), bits.ReverseBytes32(r.in7)
		for k := range r.out {
			r.out[k] = bits.ReverseBytes64(r.out[k])
		}
		for k := range r.in {
			r.in[k] = bits.ReverseBytes64(r.in[k])
		}
	}
	return rec
}

// readMeta refuses every layout but the current one, naming its version,
// then decodes the vertex count and checks it against dag.
func readMeta(version uint16, meta *persist.Decoder, dag *graph.Digraph) (int, error) {
	if version != persistVersion {
		return 0, fmt.Errorf("bfl: snapshot version %d is not the layout this build reads (version %d); delete the snapshot file and rebuild the index", version, persistVersion)
	}
	n := meta.U32()
	if err := meta.Close(); err != nil {
		return 0, err
	}
	if int(n) != dag.N() {
		return 0, fmt.Errorf("bfl: snapshot has %d vertices, graph has %d (snapshot built over a different graph?)", n, dag.N())
	}
	return int(n), nil
}

// records returns the n records of rec section b: b itself when the host
// is little-endian and b is line-aligned, otherwise a decoded aligned
// copy.
func records(b []byte, n int) ([]record, error) {
	if len(b) != n*recordSize {
		return nil, fmt.Errorf("bfl: rec section has %d bytes, want %d (%d records of %d)", len(b), n*recordSize, n, recordSize)
	}
	if littleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(recordSize) == 0 {
		return unsafe.Slice((*record)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
	}
	return fromWire(b), nil
}

// FromMapped binds a snapshot opened with persist.OpenMapped or read with
// persist.ReadMapped as a zero-copy index over dag — the DAG of the SCC
// condensation the snapshot was built over; the records hold its Tarjan
// intervals and the filter-guided fallback traverses dag, so answers are
// only correct over that condensation. The records are a view into
// the snapshot's bytes (decoded into memory instead on a big-endian
// host). The index pins the Mapped for its lifetime.
func FromMapped(m *persist.Mapped, dag *graph.Digraph) (*Index, error) {
	if m.Format() != persistFormat {
		return nil, fmt.Errorf("bfl: snapshot has format %q, want %q", m.Format(), persistFormat)
	}
	meta, err := m.Section("meta")
	if err != nil {
		return nil, err
	}
	n, err := readMeta(m.Version(), meta, dag)
	if err != nil {
		return nil, err
	}
	b, err := m.Bytes("rec")
	if err != nil {
		return nil, err
	}
	rec, err := records(b, n)
	if err != nil {
		return nil, err
	}
	return bind(dag, rec, m), nil
}

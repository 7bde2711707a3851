// Package labelstore is the flat storage substrate for label-based
// reachability indexes (PLL/TFL/DL/HL, TOL, BFL). The 2-hop family keeps
// one sorted hub-rank list per vertex and direction; storing those lists
// as per-vertex Go slices costs a pointer chase plus a likely cache miss
// per probed vertex and scatters the index across the heap. A Store packs
// every list of one direction into a single contiguous array behind a
// CSR-style offset table, so the hot query merge walks two contiguous
// runs of memory, and snapshots can carry the arrays verbatim.
//
// Two encodings share one iteration API:
//
//	Raw    — off[v] indexes a flat []uint32; Row(v) is a zero-copy
//	         subslice and queries merge plain slices.
//	Varint — off[v] indexes a byte stream of per-row delta-varints
//	         (rows are strictly ascending, so gaps encode in 1–2 bytes
//	         for the skew-heavy label distributions pruned labelings
//	         produce); queries merge through Cursors, still 0 allocs.
//
// Builders accumulate rows in pooled arenas (chunked backing arrays
// recycled across builds) and compact them once at Freeze.
package labelstore

import (
	"fmt"
	"sync"
)

// Encoding selects the physical layout of a frozen Store.
type Encoding uint8

// Encodings.
const (
	Raw Encoding = iota
	Varint
)

func (e Encoding) String() string {
	switch e {
	case Raw:
		return "raw"
	case Varint:
		return "varint"
	}
	return fmt.Sprintf("encoding(%d)", uint8(e))
}

// Footprint splits a Store's resident bytes by role, the accounting the
// obs layer exports so the compression win is observable.
type Footprint struct {
	// Offsets is the CSR offset table.
	Offsets int
	// Labels is the label payload (flat uint32s or the varint stream).
	Labels int
}

// Total is Offsets + Labels.
func (f Footprint) Total() int { return f.Offsets + f.Labels }

// Store is an immutable flat label store: one sorted uint32 list per
// vertex, packed contiguously. The zero value is an empty store.
type Store struct {
	enc     Encoding
	n       int
	entries int
	// off has n+1 entries. Raw: element offsets into lab. Varint: byte
	// offsets into data. uint32 offsets bound one direction of one index
	// at 4Gi entries (16 GiB raw), far beyond a single-box labeling.
	off  []uint32
	lab  []uint32
	data []byte
}

// N returns the number of rows (vertices).
func (s *Store) N() int { return s.n }

// Entries returns the total number of label entries across all rows.
func (s *Store) Entries() int { return s.entries }

// Encoding reports the physical layout.
func (s *Store) Encoding() Encoding { return s.enc }

// Footprint reports resident bytes split by role.
func (s *Store) Footprint() Footprint {
	return Footprint{Offsets: len(s.off) * 4, Labels: len(s.lab)*4 + len(s.data)}
}

// Row returns row v as a zero-copy subslice when the encoding supports it
// (Raw). Varint stores return (nil, false); iterate with Cursor or decode
// with AppendRow instead.
func (s *Store) Row(v int) ([]uint32, bool) {
	if s.enc != Raw {
		return nil, false
	}
	return s.lab[s.off[v]:s.off[v+1]], true
}

// Cursor returns an iterator over row v. The cursor is a value — no
// allocation — and yields the row's entries in ascending order.
func (s *Store) Cursor(v int) Cursor {
	if s.enc == Raw {
		return Cursor{lab: s.lab[s.off[v]:s.off[v+1]]}
	}
	return Cursor{data: s.data[s.off[v]:s.off[v+1]], varint: true, prev: ^uint32(0)}
}

// AppendRow decodes row v onto dst and returns the extended slice. Works
// for both encodings; the raw path is a bulk copy.
func (s *Store) AppendRow(dst []uint32, v int) []uint32 {
	if s.enc == Raw {
		return append(dst, s.lab[s.off[v]:s.off[v+1]]...)
	}
	c := s.Cursor(v)
	for x, ok := c.Next(); ok; x, ok = c.Next() {
		dst = append(dst, x)
	}
	return dst
}

// Contains reports whether row v contains x. Raw rows binary-search;
// varint rows scan (rows are short and contiguous, and the scan stops at
// the first entry > x).
func (s *Store) Contains(v int, x uint32) bool {
	if row, ok := s.Row(v); ok {
		lo, hi := 0, len(row)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if row[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(row) && row[lo] == x
	}
	c := s.Cursor(v)
	for y, ok := c.Next(); ok; y, ok = c.Next() {
		if y >= x {
			return y == x
		}
	}
	return false
}

// Parts exposes the raw arrays for persistence: the offset table and,
// depending on encoding, the flat label array (Raw) or the varint byte
// stream (Varint). Callers must not mutate them.
func (s *Store) Parts() (off []uint32, lab []uint32, data []byte) {
	return s.off, s.lab, s.data
}

// Cursor iterates one row of a Store in ascending order. The zero value
// is an exhausted cursor.
type Cursor struct {
	lab    []uint32 // raw: remaining entries
	data   []byte   // varint: remaining bytes
	prev   uint32
	varint bool
}

// Next returns the next entry, or ok == false at the end of the row.
func (c *Cursor) Next() (uint32, bool) {
	if !c.varint {
		if len(c.lab) == 0 {
			return 0, false
		}
		x := c.lab[0]
		c.lab = c.lab[1:]
		return x, true
	}
	if len(c.data) == 0 {
		return 0, false
	}
	d, n := uvarint32(c.data)
	if n <= 0 {
		// Corrupt tail; validated stores never get here, and stopping is
		// the only alloc-free recovery.
		c.data = nil
		return 0, false
	}
	c.data = c.data[n:]
	c.prev += d + 1 // first entry: prev starts at ^0, so ^0+d+1 == d
	return c.prev, true
}

// FromRows freezes per-vertex rows (each sorted ascending, strictly
// increasing) into a Store under the requested encoding. Rows may be nil.
func FromRows(rows [][]uint32, enc Encoding) *Store {
	b := NewBuilder(len(rows))
	defer b.Release()
	for v, row := range rows {
		for _, x := range row {
			b.Append(v, x)
		}
	}
	return b.Freeze(enc)
}

// FromParts reconstructs a Raw store over existing arrays (typically
// views into a snapshot). The offset table is validated — monotone,
// n+1 entries, bounded by len(lab) — so corrupt offsets surface as an
// error here instead of an out-of-range panic on the first query.
// Row contents are not re-validated; snapshot integrity is the codec's
// checksum's job.
func FromParts(n int, off []uint32, lab []uint32) (*Store, error) {
	if err := checkOffsets(n, off, len(lab)); err != nil {
		return nil, err
	}
	return &Store{enc: Raw, n: n, entries: len(lab), off: off, lab: lab}, nil
}

// FromEncoded reconstructs a Varint store over existing arrays (typically
// views into a snapshot). Offsets are validated as in FromParts, and the
// entire stream is decoded once — truncated rows, overlong varints, and
// non-monotone deltas all surface as errors, since a Cursor would stop
// silently at them — which also counts the entries.
func FromEncoded(n int, off []uint32, data []byte) (*Store, error) {
	if err := checkOffsets(n, off, len(data)); err != nil {
		return nil, err
	}
	count := 0
	for v := 0; v < n; v++ {
		row := data[off[v]:off[v+1]]
		prev := ^uint32(0)
		first := true
		for len(row) > 0 {
			d, k := uvarint32(row)
			if k <= 0 {
				return nil, fmt.Errorf("labelstore: row %d: invalid varint at byte %d", v, int(off[v+1]-off[v])-len(row))
			}
			row = row[k:]
			next := prev + d + 1
			if !first && next <= prev {
				return nil, fmt.Errorf("labelstore: row %d: non-ascending entry", v)
			}
			prev = next
			first = false
			count++
		}
	}
	return &Store{enc: Varint, n: n, entries: count, off: off, data: data}, nil
}

func checkOffsets(n int, off []uint32, limit int) error {
	if len(off) != n+1 {
		return fmt.Errorf("labelstore: offset table has %d entries, want %d", len(off), n+1)
	}
	if n >= 0 && len(off) > 0 {
		if off[0] != 0 {
			return fmt.Errorf("labelstore: offset table starts at %d, want 0", off[0])
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return fmt.Errorf("labelstore: offset table not monotone at %d", i)
			}
		}
		if int(off[n]) != limit {
			return fmt.Errorf("labelstore: offset table ends at %d, payload has %d", off[n], limit)
		}
	}
	return nil
}

// Builder accumulates per-vertex rows before freezing them flat. Row
// backing storage comes from chunked arenas that are recycled across
// builds through a pool, so repeated builds (reloads, benchmarks) stop
// paying per-row allocations.
type Builder struct {
	rows [][]uint32
	// arena blocks; blocks[:bi] are full, blocks[bi][bpos:] is free.
	blocks [][]uint32
	bi     int
	bpos   int
}

const (
	arenaBlockLen = 1 << 15 // uint32s per arena block (128 KiB)
	// Rows larger than this get dedicated heap slices instead of arena
	// space: doubling them inside blocks would waste half a block each.
	arenaMaxRow = arenaBlockLen / 8
)

var builderPool sync.Pool

// NewBuilder returns a builder for n rows, drawing recycled arena blocks
// from the package pool when available.
func NewBuilder(n int) *Builder {
	b, _ := builderPool.Get().(*Builder)
	if b == nil {
		b = &Builder{}
	}
	b.reset(n)
	return b
}

// Release returns the builder's arena to the pool. The builder must not
// be used afterwards; rows handed out by Row are invalidated.
func (b *Builder) Release() {
	b.rows = nil
	builderPool.Put(b)
}

func (b *Builder) reset(n int) {
	if cap(b.rows) >= n {
		b.rows = b.rows[:n]
		for i := range b.rows {
			b.rows[i] = nil
		}
	} else {
		b.rows = make([][]uint32, n)
	}
	b.bi, b.bpos = 0, 0
}

// alloc returns a zero-length slice with capacity c backed by the arena
// (or the heap for oversized rows).
func (b *Builder) alloc(c int) []uint32 {
	if c > arenaMaxRow {
		return make([]uint32, 0, c)
	}
	for {
		if b.bi < len(b.blocks) {
			if arenaBlockLen-b.bpos >= c {
				s := b.blocks[b.bi][b.bpos : b.bpos : b.bpos+c]
				b.bpos += c
				return s
			}
			b.bi++
			b.bpos = 0
			continue
		}
		b.blocks = append(b.blocks, make([]uint32, arenaBlockLen))
	}
}

// Append appends x to row v. Entries must arrive in strictly ascending
// order per row (the natural order for rank-ordered pruned labelings).
func (b *Builder) Append(v int, x uint32) {
	row := b.rows[v]
	if len(row) == cap(row) {
		c := cap(row) * 2
		if c == 0 {
			c = 4
		}
		nr := b.alloc(c)
		nr = nr[:len(row)]
		copy(nr, row)
		row = nr
	}
	b.rows[v] = append(row, x)
}

// InsertSorted inserts x into row v keeping ascending order; a duplicate
// is a no-op. Appending at the tail (the build-time common case) is O(1).
func (b *Builder) InsertSorted(v int, x uint32) {
	row := b.rows[v]
	if len(row) == 0 || x > row[len(row)-1] {
		b.Append(v, x)
		return
	}
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if row[lo] == x {
		return
	}
	b.Append(v, 0) // grow by one (value overwritten below)
	row = b.rows[v]
	copy(row[lo+1:], row[lo:])
	row[lo] = x
}

// Row returns the current contents of row v. The slice aliases builder
// storage and is invalidated by further mutation of that row or Release.
func (b *Builder) Row(v int) []uint32 { return b.rows[v] }

// Entries returns the total number of entries across all rows.
func (b *Builder) Entries() int {
	total := 0
	for _, r := range b.rows {
		total += len(r)
	}
	return total
}

// Freeze compacts the accumulated rows into an immutable Store under the
// requested encoding. The builder remains usable (and re-freezable)
// afterwards; call Release to recycle its arena.
func (b *Builder) Freeze(enc Encoding) *Store {
	n := len(b.rows)
	off := make([]uint32, n+1)
	entries := b.Entries()
	s := &Store{enc: enc, n: n, entries: entries, off: off}
	if enc == Raw {
		lab := make([]uint32, 0, entries)
		for v, row := range b.rows {
			off[v] = uint32(len(lab))
			lab = append(lab, row...)
		}
		off[n] = uint32(len(lab))
		s.lab = lab
		return s
	}
	data := make([]byte, 0, entries) // lower bound; grows as needed
	for v, row := range b.rows {
		off[v] = uint32(len(data))
		prev := ^uint32(0)
		for _, x := range row {
			data = append(data, appendUvarint32(nil, x-prev-1)...)
			prev = x
		}
	}
	off[n] = uint32(len(data))
	s.data = data
	return s
}

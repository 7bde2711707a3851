// Package labelstore is the flat storage substrate for the 2-hop label
// indexes (PLL/TFL/DL/HL, TOL). They keep one sorted hub-rank list per
// vertex and direction; storing those lists as per-vertex Go slices costs
// a pointer chase plus a likely cache miss per probed vertex and scatters
// the index across the heap. A Store packs every list of one direction
// into a single contiguous []uint32 behind a CSR-style offset table:
// Row(v) is a zero-copy subslice, the hot query merge walks two
// contiguous runs of memory, and snapshots carry the arrays verbatim.
//
// Builders accumulate rows in pooled arenas (chunked backing arrays
// recycled across builds) and compact them once at Freeze.
package labelstore

import (
	"fmt"
	"sync"
)

// Footprint splits a Store's resident bytes by role, the accounting the
// obs layer exports as the index size by section.
type Footprint struct {
	// Offsets is the CSR offset table.
	Offsets int
	// Labels is the flat uint32 label payload.
	Labels int
}

// Total is Offsets + Labels.
func (f Footprint) Total() int { return f.Offsets + f.Labels }

// Store is an immutable flat label store: one strictly ascending uint32
// list per vertex, packed contiguously. The zero value is an empty store.
type Store struct {
	n int
	// off has n+1 entries indexing lab. uint32 offsets bound one
	// direction of one index at 4Gi entries (16 GiB), far beyond a
	// single-box labeling.
	off []uint32
	lab []uint32
}

// N returns the number of rows (vertices).
func (s *Store) N() int { return s.n }

// Entries returns the total number of label entries across all rows.
func (s *Store) Entries() int { return len(s.lab) }

// Footprint reports resident bytes split by role.
func (s *Store) Footprint() Footprint {
	return Footprint{Offsets: len(s.off) * 4, Labels: len(s.lab) * 4}
}

// Row returns row v as a zero-copy subslice. Callers must not mutate it.
func (s *Store) Row(v int) []uint32 { return s.lab[s.off[v]:s.off[v+1]] }

// Parts exposes the offset table and the flat label array for
// persistence. Callers must not mutate them.
func (s *Store) Parts() (off, lab []uint32) { return s.off, s.lab }

// FromRows freezes per-vertex rows (each strictly ascending) into a
// Store. Rows may be nil.
func FromRows(rows [][]uint32) *Store {
	b := NewBuilder(len(rows))
	defer b.Release()
	for v, row := range rows {
		for _, x := range row {
			b.Append(v, x)
		}
	}
	return b.Freeze()
}

// FromParts reconstructs a store over existing arrays (typically views
// into a snapshot). The offset table is validated — n+1 entries,
// monotone, bounded by len(lab) — and so is every row, which must be
// strictly ascending, in one linear pass: corrupt offsets surface as an
// error here instead of an out-of-range panic on the first query, and an
// unsorted row instead of a merge that steps past a shared hub.
func FromParts(n int, off []uint32, lab []uint32) (*Store, error) {
	if err := checkOffsets(n, off, len(lab)); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		row := lab[off[v]:off[v+1]]
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				return nil, fmt.Errorf("labelstore: row %d is not strictly ascending at entry %d", v, i)
			}
		}
	}
	return &Store{n: n, off: off, lab: lab}, nil
}

func checkOffsets(n int, off []uint32, limit int) error {
	if n < 0 || len(off) != n+1 {
		return fmt.Errorf("labelstore: offset table has %d entries, want %d", len(off), n+1)
	}
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

// Freeze compacts the accumulated rows into an immutable Store. The
// builder remains usable (and re-freezable) afterwards; call Release to
// recycle its arena.
func (b *Builder) Freeze() *Store {
	n := len(b.rows)
	off := make([]uint32, n+1)
	lab := make([]uint32, 0, b.Entries())
	for v, row := range b.rows {
		off[v] = uint32(len(lab))
		lab = append(lab, row...)
	}
	off[n] = uint32(len(lab))
	return &Store{n: n, off: off, lab: lab}
}

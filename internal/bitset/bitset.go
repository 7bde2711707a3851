// Package bitset provides dense bit sets used throughout the reachability
// indexes: reachable sets the builders retain, rows of transitive-closure
// matrices, and Bloom-filter backing storage. A query's transient visited
// set is not one of these: it comes from the pooled arena
// (internal/scratch), whose own set type is emptied by the words a query
// touched rather than by a clear of the whole set.
//
// The zero value of Set is an empty set with zero capacity; it grows on
// demand when bits are set.
package bitset

import (
	"math/bits"
)

const wordBits = 64

// Set is a growable dense bit set over non-negative integers.
type Set struct {
	words []uint64
}

// New returns a set pre-sized to hold bits [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// grow ensures the set can hold bit i, reusing spare capacity (zeroing
// the newly exposed words) before falling back to reallocation.
func (s *Set) grow(i int) {
	w := i/wordBits + 1
	if w <= len(s.words) {
		return
	}
	if w <= cap(s.words) {
		old := len(s.words)
		s.words = s.words[:w]
		for j := old; j < w; j++ {
			s.words[j] = 0
		}
		return
	}
	nw := make([]uint64, w)
	copy(nw, s.words)
	s.words = nw
}

// Set sets bit i to 1, growing the set if needed.
func (s *Set) Set(i int) {
	s.grow(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (s *Set) Clear(i int) {
	if i/wordBits < len(s.words) {
		s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(i)%wordBits)) != 0
}

// Reset clears all bits while keeping the capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets s to the union of s and t.
func (s *Set) Or(t *Set) {
	if len(t.words) > len(s.words) {
		s.grow(len(t.words)*wordBits - 1)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndNotEmpty reports whether t contains any bit not present in s,
// i.e. whether t is NOT a subset of s.
func (s *Set) AndNotEmpty(t *Set) bool {
	for i, w := range t.words {
		var sw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if w&^sw != 0 {
			return true
		}
	}
	return false
}

// Contains reports whether t is a subset of s.
func (s *Set) Contains(t *Set) bool { return !s.AndNotEmpty(t) }

// Intersects reports whether s and t share at least one bit.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w}
}

// ForEach calls f for each set bit in ascending order. If f returns false
// iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Words exposes the backing words (read-only by convention); used by
// size accounting.
func (s *Set) Words() []uint64 { return s.words }

// Bytes returns the memory footprint of the backing storage in bytes.
func (s *Set) Bytes() int { return len(s.words) * 8 }

// Matrix is a fixed-shape bit matrix with n rows and m columns, stored
// row-major in a single allocation. It backs exact transitive closures.
type Matrix struct {
	n, m     int
	rowWords int
	words    []uint64
}

// NewMatrix returns an n x m bit matrix with all bits zero.
func NewMatrix(n, m int) *Matrix {
	rw := (m + wordBits - 1) / wordBits
	return &Matrix{n: n, m: m, rowWords: rw, words: make([]uint64, n*rw)}
}

// Rows returns the number of rows n.
func (mt *Matrix) Rows() int { return mt.n }

// Cols returns the number of columns m.
func (mt *Matrix) Cols() int { return mt.m }

// Set sets bit (i, j).
func (mt *Matrix) Set(i, j int) {
	mt.words[i*mt.rowWords+j/wordBits] |= 1 << (uint(j) % wordBits)
}

// Test reports whether bit (i, j) is set.
func (mt *Matrix) Test(i, j int) bool {
	return mt.words[i*mt.rowWords+j/wordBits]&(1<<(uint(j)%wordBits)) != 0
}

// OrRow ors row src into row dst (dst |= src).
func (mt *Matrix) OrRow(dst, src int) {
	d := mt.words[dst*mt.rowWords : (dst+1)*mt.rowWords]
	s := mt.words[src*mt.rowWords : (src+1)*mt.rowWords]
	for i := range d {
		d[i] |= s[i]
	}
}

// RowCount returns the number of set bits in row i.
func (mt *Matrix) RowCount(i int) int {
	c := 0
	for _, w := range mt.words[i*mt.rowWords : (i+1)*mt.rowWords] {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountAll returns the total number of set bits in the matrix.
func (mt *Matrix) CountAll() int {
	c := 0
	for _, w := range mt.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Bytes returns the memory footprint of the backing storage in bytes.
func (mt *Matrix) Bytes() int { return len(mt.words) * 8 }

package labelstore

import (
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to FromParts, the binding snapshot
// loads go through: head's first byte picks the row count n and its
// remaining whole words are the offset table (so the table may have the
// wrong number of entries), and data's whole words are the flat label
// array. FromParts must either reject the input with an error or return
// a store whose rows are in range, strictly ascending and sum to
// Entries(). It must never panic, whatever the offsets or rows claim.
//
// The corpus in testdata/fuzz/FuzzDecode also keeps the inputs this
// fuzzer held when it drove a delta-varint decoder (overflow_33bit,
// overlong_zero, truncated_varint, wrapping_row, 7dcdf7ac273aee27); they
// are arbitrary bytes to the flat layout.
func FuzzDecode(f *testing.F) {
	words := func(xs ...uint32) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
		return b
	}
	seed := func(n int, off []uint32, lab []uint32) {
		f.Add(append([]byte{byte(n)}, words(off...)...), words(lab...))
	}
	seed(1, []uint32{0, 2}, []uint32{3, 10})         // valid single row
	seed(0, []uint32{0}, nil)                        // empty store
	seed(2, []uint32{0, 2, 2}, []uint32{0, 1})       // two rows, second empty
	seed(1, []uint32{0, 2}, []uint32{10, 3})         // unsorted row
	seed(1, []uint32{0, 2}, []uint32{5, 5})          // duplicate entry
	seed(1, []uint32{0, 2}, []uint32{0, ^uint32(0)}) // full uint32 range
	seed(2, []uint32{0, 2, 1}, []uint32{1})          // non-monotone offsets
	seed(1, []uint32{0, 9}, []uint32{1})             // offset past payload end
	seed(2, []uint32{0, 1}, []uint32{5})             // wrong count: n+1 entries wanted
	seed(2, []uint32{1, 1, 2}, []uint32{4, 7})       // table does not start at 0

	f.Fuzz(func(t *testing.T, head, data []byte) {
		if len(head) < 1 {
			return
		}
		n := int(head[0] % 33)
		off := make([]uint32, min((len(head)-1)/4, 64))
		for i := range off {
			off[i] = binary.LittleEndian.Uint32(head[1+i*4:])
		}
		lab := make([]uint32, len(data)/4)
		for i := range lab {
			lab[i] = binary.LittleEndian.Uint32(data[i*4:])
		}
		s, err := FromParts(n, off, lab)
		if err != nil {
			return
		}
		if s.N() != n {
			t.Fatalf("N = %d, want %d", s.N(), n)
		}
		entries := 0
		for v := 0; v < n; v++ {
			row := s.Row(v)
			for i := 1; i < len(row); i++ {
				if row[i] <= row[i-1] {
					t.Fatalf("row %d not strictly ascending: %d after %d", v, row[i], row[i-1])
				}
			}
			entries += len(row)
		}
		if entries != s.Entries() || entries != len(lab) {
			t.Fatalf("rows hold %d entries, Entries() %d, payload %d", entries, s.Entries(), len(lab))
		}
	})
}

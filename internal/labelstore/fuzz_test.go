package labelstore

import (
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the varint label decoder through
// FromEncoded: the input is split into an offset table and a payload, and
// the decoder must either reject it with an error or produce rows that
// re-encode to the identical stream (canonical-form round trip). It must
// never panic, whatever the offsets or stream bytes claim.
func FuzzDecode(f *testing.F) {
	seed := func(n int, off []uint32, data []byte) {
		buf := []byte{byte(n)}
		for _, o := range off {
			buf = binary.LittleEndian.AppendUint32(buf, o)
		}
		f.Add(buf, data)
	}
	// Valid single-row stream: [3, 10] -> delta-1 varints {3, 6}.
	seed(1, []uint32{0, 2}, []byte{0x03, 0x06})
	// Empty store.
	seed(0, []uint32{0}, nil)
	// Two rows, second empty.
	seed(2, []uint32{0, 2, 2}, []byte{0x00, 0x00})
	// Truncated varint (continuation bit at end of row).
	seed(1, []uint32{0, 1}, []byte{0x80})
	// Overlong encoding of 0.
	seed(1, []uint32{0, 2}, []byte{0x80, 0x00})
	// 33-bit overflow in the 5th byte.
	seed(1, []uint32{0, 5}, []byte{0xff, 0xff, 0xff, 0xff, 0x10})
	// Non-monotone offsets.
	seed(2, []uint32{0, 2, 1}, []byte{0x01, 0x01})
	// Offset past payload end.
	seed(1, []uint32{0, 9}, []byte{0x01})
	// Wrapping row: first entry ^uint32(0), then any delta wraps.
	seed(1, []uint32{0, 6}, append(appendUvarint32(nil, ^uint32(0)), 0x00))
	// Multi-byte deltas.
	seed(1, []uint32{0, 7}, append(appendUvarint32(appendUvarint32(nil, 0x5000), 0x243F5), 0x01))

	f.Fuzz(func(t *testing.T, head, data []byte) {
		if len(head) < 1 {
			return
		}
		n := int(head[0] % 33)
		head = head[1:]
		if len(head) < (n+1)*4 {
			return
		}
		off := make([]uint32, n+1)
		for i := range off {
			off[i] = binary.LittleEndian.Uint32(head[i*4:])
		}
		s, err := FromEncoded(n, off, data)
		if err != nil {
			return
		}
		// Accepted: every row must decode ascending and re-encode to the
		// exact input bytes (canonical form is unique).
		re := make([]byte, 0, len(data))
		entries := 0
		for v := 0; v < n; v++ {
			if int(off[v]) != len(re) {
				t.Fatalf("row %d starts at %d, re-encoded %d", v, off[v], len(re))
			}
			prev := ^uint32(0)
			first := true
			c := s.Cursor(v)
			for x, ok := c.Next(); ok; x, ok = c.Next() {
				if !first && x <= prev {
					t.Fatalf("row %d not ascending: %d after %d", v, x, prev)
				}
				re = appendUvarint32(re, x-prev-1)
				prev = x
				first = false
				entries++
			}
		}
		if len(re) != len(data) || string(re) != string(data) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data)
		}
		if entries != s.Entries() {
			t.Fatalf("entries %d vs %d", entries, s.Entries())
		}
	})
}

// FuzzVarint round-trips single values and checks the decoder rejects
// exactly the non-canonical forms.
func FuzzVarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x7f})
	f.Add([]byte{0x80, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x10})
	f.Add([]byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, buf []byte) {
		v, n := uvarint32(buf)
		if n <= 0 {
			return
		}
		if n > maxUvarint32Len || n > len(buf) {
			t.Fatalf("n=%d out of range", n)
		}
		enc := appendUvarint32(nil, v)
		if len(enc) != n || string(enc) != string(buf[:n]) {
			t.Fatalf("decode %x -> %d re-encodes %x", buf[:n], v, enc)
		}
	})
}

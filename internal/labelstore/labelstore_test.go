package labelstore

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomRows(t *testing.T, n, maxLen int, seed int64) [][]uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]uint32, n)
	for v := range rows {
		l := rng.Intn(maxLen + 1)
		seen := map[uint32]bool{}
		for len(rows[v]) < l {
			x := uint32(rng.Intn(1 << 20))
			if rng.Intn(50) == 0 {
				x = uint32(rng.Uint64()) // occasionally huge: exercise long varints
			}
			if !seen[x] {
				seen[x] = true
				rows[v] = append(rows[v], x)
			}
		}
		sortU32(rows[v])
	}
	return rows
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	rows := randomRows(t, 200, 30, 1)
	for _, enc := range []Encoding{Raw, Varint} {
		s := FromRows(rows, enc)
		if s.N() != len(rows) {
			t.Fatalf("%v: N=%d want %d", enc, s.N(), len(rows))
		}
		want := 0
		for v, row := range rows {
			want += len(row)
			got := s.AppendRow(nil, v)
			if len(got) == 0 && len(row) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, row) {
				t.Fatalf("%v: row %d = %v want %v", enc, v, got, row)
			}
			// Cursor agrees.
			c := s.Cursor(v)
			for i, x := range row {
				y, ok := c.Next()
				if !ok || y != x {
					t.Fatalf("%v: row %d cursor[%d] = %d,%v want %d", enc, v, i, y, ok, x)
				}
			}
			if _, ok := c.Next(); ok {
				t.Fatalf("%v: row %d cursor overruns", enc, v)
			}
		}
		if s.Entries() != want {
			t.Fatalf("%v: entries=%d want %d", enc, s.Entries(), want)
		}
	}
}

func TestStoreContains(t *testing.T) {
	rows := randomRows(t, 100, 20, 2)
	for _, enc := range []Encoding{Raw, Varint} {
		s := FromRows(rows, enc)
		for v, row := range rows {
			for _, x := range row {
				if !s.Contains(v, x) {
					t.Fatalf("%v: Contains(%d, %d) = false", enc, v, x)
				}
			}
			for _, x := range []uint32{0, 7, 1 << 21, ^uint32(0)} {
				want := false
				for _, y := range row {
					if y == x {
						want = true
					}
				}
				if s.Contains(v, x) != want {
					t.Fatalf("%v: Contains(%d, %d) = %v want %v", enc, v, x, !want, want)
				}
			}
		}
	}
}

func TestRowRawOnly(t *testing.T) {
	rows := [][]uint32{{1, 5, 9}, {}, {2}}
	raw := FromRows(rows, Raw)
	if r, ok := raw.Row(0); !ok || !reflect.DeepEqual(r, []uint32{1, 5, 9}) {
		t.Fatalf("raw Row(0) = %v,%v", r, ok)
	}
	vi := FromRows(rows, Varint)
	if _, ok := vi.Row(0); ok {
		t.Fatal("varint Row should report ok=false")
	}
}

func TestFromPartsValidation(t *testing.T) {
	lab := []uint32{1, 2, 3}
	cases := []struct {
		name string
		n    int
		off  []uint32
	}{
		{"short table", 2, []uint32{0, 3}},
		{"bad start", 2, []uint32{1, 2, 3}},
		{"non-monotone", 2, []uint32{0, 2, 1}},
		{"end mismatch", 2, []uint32{0, 1, 2}},
	}
	for _, tc := range cases {
		if _, err := FromParts(tc.n, tc.off, lab); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	s, err := FromParts(2, []uint32{0, 1, 3}, lab)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.AppendRow(nil, 1); !reflect.DeepEqual(got, []uint32{2, 3}) {
		t.Fatalf("row 1 = %v", got)
	}
}

func TestFromEncodedValidation(t *testing.T) {
	// Build a known-good stream, then corrupt it.
	rows := [][]uint32{{3, 10}, {0}}
	s := FromRows(rows, Varint)
	off, _, data := s.Parts()

	good, err := FromEncoded(2, off, data)
	if err != nil {
		t.Fatal(err)
	}
	if good.Entries() != 3 {
		t.Fatalf("entries = %d want 3", good.Entries())
	}

	// Truncated varint: continuation bit set at end of row.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] |= 0x80
	if _, err := FromEncoded(2, off, bad); err == nil {
		t.Fatal("truncated varint accepted")
	}

	// Overlong encoding: 0x80 0x00 decodes to 0 non-canonically.
	over := []byte{0x80, 0x00}
	if _, err := FromEncoded(1, []uint32{0, 2}, over); err == nil {
		t.Fatal("overlong varint accepted")
	}

	// >32-bit value in 5th byte.
	big := []byte{0xff, 0xff, 0xff, 0xff, 0x10}
	if _, err := FromEncoded(1, []uint32{0, 5}, big); err == nil {
		t.Fatal("33-bit varint accepted")
	}

	// Non-ascending rows can't be expressed (delta-1 always advances by
	// >= 1), but a wrap past ^uint32(0) is non-ascending: first entry
	// ^0 (delta ^0-1... ) — encode max then anything wraps.
	wrap := appendUvarint32(nil, ^uint32(0)-0) // first entry = ^0
	wrap = appendUvarint32(wrap, 0)            // next would wrap to 0
	if _, err := FromEncoded(1, []uint32{0, uint32(len(wrap))}, wrap); err == nil {
		t.Fatal("wrapping row accepted")
	}
}

func TestBuilderInsertSorted(t *testing.T) {
	b := NewBuilder(1)
	defer b.Release()
	for _, x := range []uint32{5, 1, 9, 5, 3, 7, 0} {
		b.InsertSorted(0, x)
	}
	want := []uint32{0, 1, 3, 5, 7, 9}
	if got := b.Row(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("row = %v want %v", got, want)
	}
	s := b.Freeze(Raw)
	if got := s.AppendRow(nil, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen = %v want %v", got, want)
	}
}

func TestBuilderPoolReuse(t *testing.T) {
	b := NewBuilder(10)
	for v := 0; v < 10; v++ {
		for x := uint32(0); x < 100; x++ {
			b.Append(v, x)
		}
	}
	b.Freeze(Raw)
	b.Release()
	// Reacquire: rows must be clean even if the arena is recycled.
	b2 := NewBuilder(10)
	defer b2.Release()
	for v := 0; v < 10; v++ {
		if len(b2.Row(v)) != 0 {
			t.Fatalf("recycled builder row %d not empty", v)
		}
	}
	b2.Append(3, 42)
	s := b2.Freeze(Varint)
	if got := s.AppendRow(nil, 3); !reflect.DeepEqual(got, []uint32{42}) {
		t.Fatalf("row 3 = %v", got)
	}
	if s.Entries() != 1 {
		t.Fatalf("entries = %d", s.Entries())
	}
}

func TestBuilderLargeRows(t *testing.T) {
	// Rows past arenaMaxRow fall back to dedicated slices; contents must
	// survive the growth path either way.
	b := NewBuilder(2)
	defer b.Release()
	n := arenaMaxRow*2 + 17
	for i := 0; i < n; i++ {
		b.Append(0, uint32(i*3))
		b.Append(1, uint32(i*5))
	}
	s := b.Freeze(Raw)
	r0, _ := s.Row(0)
	if len(r0) != n || r0[n-1] != uint32((n-1)*3) {
		t.Fatalf("row 0 len=%d last=%d", len(r0), r0[len(r0)-1])
	}
}

func TestVarintCanonical(t *testing.T) {
	vals := []uint32{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 21, 1 << 28, ^uint32(0)}
	for _, v := range vals {
		enc := appendUvarint32(nil, v)
		if len(enc) > maxUvarint32Len {
			t.Fatalf("%d: %d bytes", v, len(enc))
		}
		got, n := uvarint32(enc)
		if n != len(enc) || got != v {
			t.Fatalf("%d: decoded %d (n=%d, len=%d)", v, got, n, len(enc))
		}
		// Trailing bytes must not be consumed.
		got2, n2 := uvarint32(append(enc, 0xde))
		if got2 != v || n2 != len(enc) {
			t.Fatalf("%d: with tail decoded %d n=%d", v, got2, n2)
		}
	}
	if _, n := uvarint32(nil); n != 0 {
		t.Fatalf("empty: n=%d", n)
	}
	if _, n := uvarint32([]byte{0x80}); n != 0 {
		t.Fatalf("truncated: n=%d", n)
	}
	if _, n := uvarint32([]byte{0x81, 0x00}); n >= 0 {
		t.Fatalf("overlong accepted: n=%d", n)
	}
	if _, n := uvarint32([]byte{0xff, 0xff, 0xff, 0xff, 0xff}); n >= 0 {
		t.Fatalf("overflow accepted: n=%d", n)
	}
}

func TestFootprint(t *testing.T) {
	rows := randomRows(t, 500, 20, 3)
	raw := FromRows(rows, Raw)
	vi := FromRows(rows, Varint)
	fr, fv := raw.Footprint(), vi.Footprint()
	if fr.Offsets != 501*4 || fv.Offsets != 501*4 {
		t.Fatalf("offsets: %d / %d", fr.Offsets, fv.Offsets)
	}
	if fr.Labels != raw.Entries()*4 {
		t.Fatalf("raw labels = %d want %d", fr.Labels, raw.Entries()*4)
	}
	if fv.Labels <= 0 || fv.Total() <= 0 {
		t.Fatalf("varint footprint %+v", fv)
	}
}

func BenchmarkCursorVarint(b *testing.B) {
	rows := make([][]uint32, 1)
	for x := uint32(0); x < 64; x++ {
		rows[0] = append(rows[0], x*7)
	}
	s := FromRows(rows, Varint)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		c := s.Cursor(0)
		for x, ok := c.Next(); ok; x, ok = c.Next() {
			sink += x
		}
	}
	_ = sink
}

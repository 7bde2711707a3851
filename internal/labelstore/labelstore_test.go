package labelstore

import (
	"math/rand"
	"reflect"
	"slices"
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
				x = uint32(rng.Uint64()) // occasionally huge: the full uint32 range
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
	s := FromRows(rows)
	if s.N() != len(rows) {
		t.Fatalf("N=%d want %d", s.N(), len(rows))
	}
	want := 0
	for v, row := range rows {
		want += len(row)
		if got := s.Row(v); !slices.Equal(got, row) {
			t.Fatalf("row %d = %v want %v", v, got, row)
		}
	}
	if s.Entries() != want {
		t.Fatalf("entries=%d want %d", s.Entries(), want)
	}
}

func TestFromPartsValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		off  []uint32
		lab  []uint32
	}{
		{"short table", 2, []uint32{0, 3}, []uint32{1, 2, 3}},
		{"bad start", 2, []uint32{1, 2, 3}, []uint32{1, 2, 3}},
		{"non-monotone", 2, []uint32{0, 2, 1}, []uint32{1, 2, 3}},
		{"end mismatch", 2, []uint32{0, 1, 2}, []uint32{1, 2, 3}},
		{"unsorted row", 2, []uint32{0, 1, 3}, []uint32{1, 3, 2}},
		{"duplicate entry", 2, []uint32{0, 1, 3}, []uint32{1, 2, 2}},
	}
	for _, tc := range cases {
		if _, err := FromParts(tc.n, tc.off, tc.lab); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// Rows are checked one at a time: 3 then 2 across a row boundary is fine.
	s, err := FromParts(2, []uint32{0, 1, 3}, []uint32{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Row(1); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("row 1 = %v", got)
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
	s := b.Freeze()
	if got := s.Row(0); !reflect.DeepEqual(got, want) {
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
	b.Freeze()
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
	s := b2.Freeze()
	if got := s.Row(3); !reflect.DeepEqual(got, []uint32{42}) {
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
	s := b.Freeze()
	r0 := s.Row(0)
	if len(r0) != n || r0[n-1] != uint32((n-1)*3) {
		t.Fatalf("row 0 len=%d last=%d", len(r0), r0[len(r0)-1])
	}
}

func TestFootprint(t *testing.T) {
	rows := randomRows(t, 500, 20, 3)
	s := FromRows(rows)
	f := s.Footprint()
	if f.Offsets != 501*4 {
		t.Fatalf("offsets = %d want %d", f.Offsets, 501*4)
	}
	if f.Labels != s.Entries()*4 || f.Total() != f.Offsets+f.Labels {
		t.Fatalf("footprint %+v for %d entries", f, s.Entries())
	}
}

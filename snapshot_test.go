package reach

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/persist"
	"repro/internal/tc"
)

// snapshotOf saves ix into a fresh buffer.
func snapshotOf(t *testing.T, ix Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveIndex(&buf, ix); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotEquivalenceFig1 checks a loaded BFL answers exactly like the
// index it was saved from, on every one of Figure 1's 81 vertex pairs.
func TestSnapshotEquivalenceFig1(t *testing.T) {
	g := Fig1Plain()
	fresh, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotOf(t, fresh)
	loaded, err := LoadIndex(bytes.NewReader(raw), g, Options{})
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	for s := 0; s < g.N(); s++ {
		for tv := 0; tv < g.N(); tv++ {
			want := fresh.Reach(V(s), V(tv))
			if got := loaded.Reach(V(s), V(tv)); got != want {
				t.Errorf("loaded.Reach(%d,%d) = %v, fresh says %v", s, tv, got, want)
			}
		}
	}
}

// TestSnapshotEquivalenceGenerated does the same over a generated cyclic
// graph big enough (12k vertices) that the SCC condensation and the
// multi-word Bloom filters are all exercised, on a sampled pair workload.
func TestSnapshotEquivalenceGenerated(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 12_000, M: 36_000, Seed: 7})
	fresh, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotOf(t, fresh)
	loaded, err := LoadIndex(bytes.NewReader(raw), g, Options{})
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5_000; i++ {
		s := V(rng.Intn(g.N()))
		tv := V(rng.Intn(g.N()))
		want := fresh.Reach(s, tv)
		if got := loaded.Reach(s, tv); got != want {
			t.Fatalf("loaded.Reach(%d,%d) = %v, fresh says %v", s, tv, got, want)
		}
	}
}

// TestSnapshotWarmStartSpans verifies the acceptance criterion that a
// warm-started DB's build timeline shows "index/load" and no
// "index/build" — the observable proof that the build phase was skipped.
func TestSnapshotWarmStartSpans(t *testing.T) {
	g := Fig1Plain()
	cold, err := NewDB(g, DBConfig{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cold.PlainIndex(KindBFL)
	raw := snapshotOf(t, ix) // through Instrumented+condensed wrappers

	warm, err := NewDB(g, DBConfig{Metrics: true, PlainSnapshot: bytes.NewReader(raw)})
	if err != nil {
		t.Fatalf("warm NewDB: %v", err)
	}
	snap, ok := warm.MetricsSnapshot()
	if !ok {
		t.Fatal("metrics disabled")
	}
	var sawLoad, sawBuild bool
	for _, span := range snap.Build {
		switch span.Name {
		case "index/load":
			sawLoad = true
		case "index/build":
			sawBuild = true
		}
	}
	if !sawLoad || sawBuild {
		t.Fatalf("warm-start spans = %+v, want index/load present and index/build absent", snap.Build)
	}

	// And the warm DB answers like the cold one.
	for s := 0; s < g.N(); s++ {
		for tv := 0; tv < g.N(); tv++ {
			want, _ := cold.Reach(V(s), V(tv))
			if got, err := warm.Reach(V(s), V(tv)); err != nil || got != want {
				t.Fatalf("warm.Reach(%d,%d) = %v, %v; want %v", s, tv, got, err, want)
			}
		}
	}
}

func TestSnapshotWarmStartWrongKind(t *testing.T) {
	g := Fig1Plain()
	ix, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotOf(t, ix)
	_, err = NewDB(g, DBConfig{Plain: KindPLL, PlainSnapshot: bytes.NewReader(raw)})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("warm-start with Plain=pll: err = %v, want ErrBadOptions", err)
	}
}

func TestSaveIndexUnsupportedKind(t *testing.T) {
	ix, err := Build(KindTOL, Fig1Plain(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = SaveIndex(&buf, ix)
	if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "no snapshot format") {
		t.Fatalf("SaveIndex(TOL) = %v, want ErrBadOptions", err)
	}
}

// TestSaveIndexRefusesCondensedPLL: a PLL-family index lifted through SCC
// condensation (TFL over a cyclic graph) labels component ids, so the
// snapshot codec — which re-binds labels to original vertex ids — must
// refuse it rather than persist silently-corrupt labels.
func TestSaveIndexRefusesCondensedPLL(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 200, M: 800, Seed: 11}) // cyclic
	ix, err := Build(KindTFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = SaveIndex(&buf, ix)
	if !errors.Is(err, ErrBadOptions) || !strings.Contains(err.Error(), "condensation") {
		t.Fatalf("SaveIndex(condensed TFL) = %v, want condensation refusal", err)
	}
}

// TestSnapshotMappedEquivalence is the acceptance matrix for the one
// snapshot layout: for each snapshottable kind (bfl, pll, dl),
// build → SaveIndex, then LoadIndex from a stream, LoadIndexMapped from
// the file, and LoadIndex from the opened file (the read-into-memory
// path OpenMapped falls back to where mmap is unavailable) must all
// answer identically to the fresh index, on Figure 1 and on a 12k-vertex
// DAG.
func TestSnapshotMappedEquivalence(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"fig1", Fig1Plain()},
		{"dag12k", gen.RandomDAG(gen.Config{N: 12_000, M: 36_000, Seed: 13})},
	}
	cases := []struct {
		name string
		kind Kind
		opt  Options
	}{
		{"bfl", KindBFL, Options{}},
		{"pll-raw", KindPLL, Options{}},
		{"dl", KindDL, Options{}},
	}
	for _, gc := range graphs {
		for _, tc := range cases {
			t.Run(gc.name+"/"+tc.name, func(t *testing.T) {
				g := gc.g
				fresh, err := Build(tc.kind, g, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				raw := snapshotOf(t, fresh)
				path := filepath.Join(t.TempDir(), "ix.snap")
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				streamed, err := LoadIndex(bytes.NewReader(raw), g, Options{})
				if err != nil {
					t.Fatalf("LoadIndex: %v", err)
				}
				mapped, err := LoadIndexMapped(path, g, Options{})
				if err != nil {
					t.Fatalf("LoadIndexMapped: %v", err)
				}
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				read, err := LoadIndex(f, g, Options{})
				f.Close()
				if err != nil {
					t.Fatalf("LoadIndex(file): %v", err)
				}
				rng := rand.New(rand.NewSource(13))
				pairs := g.N() * g.N()
				if pairs > 4_000 {
					pairs = 4_000
				}
				for i := 0; i < pairs; i++ {
					s := V(rng.Intn(g.N()))
					tv := V(rng.Intn(g.N()))
					want := fresh.Reach(s, tv)
					for j, ld := range []Index{streamed, mapped, read} {
						if got := ld.Reach(s, tv); got != want {
							t.Fatalf("loaded[%d].Reach(%d,%d) = %v, fresh says %v", j, s, tv, got, want)
						}
					}
				}
			})
		}
	}
}

// TestLoadIndexMappedCorruption flips bytes across a snapshot file; every
// corrupted load must fail the checksum (or section parse) cleanly — an
// error, never a panic, never a silently-wrong index.
func TestLoadIndexMappedCorruption(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 500, M: 1_500, Seed: 17})
	ix, err := Build(KindPLL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotOf(t, ix)
	dir := t.TempDir()
	for pos := 0; pos < len(raw); pos += 211 {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x5A
		path := filepath.Join(dir, "bad.snap")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexMapped(path, g, Options{}); err == nil {
			t.Fatalf("flip at byte %d loaded without error", pos)
		}
	}
	// Truncations too.
	for cut := 0; cut < len(raw); cut += 97 {
		path := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexMapped(path, g, Options{}); err == nil {
			t.Fatalf("truncation at %d loaded without error", cut)
		}
	}
}

// TestWarmStartMappedDB cold-starts a DB from a mapped snapshot and
// checks the timeline shows index/load, answers match, and the footprint
// gauges are populated.
func TestWarmStartMappedDB(t *testing.T) {
	g := Fig1Plain()
	cold, err := NewDB(g, DBConfig{Plain: KindPLL})
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cold.PlainIndex(KindPLL)
	path := filepath.Join(t.TempDir(), "pll.snap")
	if err := os.WriteFile(path, snapshotOf(t, ix), 0o644); err != nil {
		t.Fatal(err)
	}
	warm, err := NewDB(g, DBConfig{Plain: KindPLL, Metrics: true, PlainSnapshotMapped: path})
	if err != nil {
		t.Fatalf("warm NewDB: %v", err)
	}
	snap, _ := warm.MetricsSnapshot()
	var sawLoad, sawBuild bool
	for _, span := range snap.Build {
		switch span.Name {
		case "index/load":
			sawLoad = true
		case "index/build":
			sawBuild = true
		}
	}
	if !sawLoad || sawBuild {
		t.Fatalf("warm-start spans = %+v, want index/load present and index/build absent", snap.Build)
	}
	is, ok := snap.Indexes["PLL"]
	if !ok || is.Bytes == 0 || is.BytesLabels == 0 {
		t.Fatalf("footprint gauges not populated: %+v", is)
	}
	for s := 0; s < g.N(); s++ {
		for tv := 0; tv < g.N(); tv++ {
			want, _ := cold.Reach(V(s), V(tv))
			if got, err := warm.Reach(V(s), V(tv)); err != nil || got != want {
				t.Fatalf("warm.Reach(%d,%d) = %v, %v; want %v", s, tv, got, err, want)
			}
		}
	}
}

// TestLoadIndexGraphMismatch pairs a Figure 1 snapshot with a graph of a
// different size; the vertex-count check must reject it.
func TestLoadIndexGraphMismatch(t *testing.T) {
	ix, err := Build(KindBFL, Fig1Plain(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotOf(t, ix)
	other := gen.RandomDAG(gen.Config{N: 50, M: 100, Seed: 1})
	if _, err := LoadIndex(bytes.NewReader(raw), other, Options{}); err == nil || !strings.Contains(err.Error(), "different graph") {
		t.Fatalf("graph mismatch: err = %v, want different-graph error", err)
	}
}

// TestLoadIndexTruncationNeverPanics loads every strict prefix of a valid
// snapshot; all must fail with an error, none may panic.
func TestLoadIndexTruncationNeverPanics(t *testing.T) {
	g := Fig1Plain()
	ix, err := Build(KindBFL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotOf(t, ix)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadIndex(bytes.NewReader(raw[:cut]), g, Options{}); err == nil {
			t.Fatalf("prefix of %d bytes (full is %d) loaded without error", cut, len(raw))
		}
	}
	// The full snapshot with trailing garbage appended still loads: the
	// reader consumes exactly the sections it wrote (extra bytes belong to
	// whatever container the caller embedded the snapshot in).
	if _, err := LoadIndex(bytes.NewReader(append(raw[:len(raw):len(raw)], 0xAA)), g, Options{}); err != nil {
		t.Fatalf("trailing byte after snapshot: %v", err)
	}
}

// TestLoadIndexRefusesOldLayouts: a BFL snapshot in the version-1 or
// version-2 layout (interval and filter arrays in separate sections) or
// in the version-3 layout (a DFS postorder word in each record), a
// PLL snapshot in the version-1 streamed layout (no checksum), and a
// version-2 PLL snapshot whose labels are delta-varint streams (meta
// encoding word 1) are refused by LoadIndex and LoadIndexMapped with an
// error naming the version (or the varint encoding) and saying to
// rebuild — never a panic, never a wrong index.
func TestLoadIndexRefusesOldLayouts(t *testing.T) {
	g := Fig1Plain()
	n := uint32(g.N())
	bflMeta := func(e *persist.Encoder) { e.U32(n); e.U32(4) }
	for _, old := range []struct {
		format  string
		version uint16
		want    string // the error names this
		write   func(pw *persist.Writer)
	}{
		{"bfl", 1, "version 1", func(pw *persist.Writer) {
			pw.Section("meta", bflMeta)
			pw.Section("intervals", func(e *persist.Encoder) { e.U32s(make([]uint32, 2*n)) })
			pw.Section("filters", func(e *persist.Encoder) {
				e.U32(8 * n) // a length-prefixed []uint64 of 8n zero words
				for i := uint32(0); i < 16*n; i++ {
					e.U32(0)
				}
			})
		}},
		{"bfl", 2, "version 2", func(pw *persist.Writer) {
			pw.Section("meta", bflMeta)
			pw.U32s("post", make([]uint32, n))
			pw.U32s("min", make([]uint32, n))
			pw.AlignedBytes("fout", 8, make([]byte, 32*n))
			pw.AlignedBytes("fin", 8, make([]byte, 32*n))
			pw.Checksum()
		}},
		{"bfl", 3, "version 3", func(pw *persist.Writer) {
			pw.Section("meta", func(e *persist.Encoder) { e.U32(n) })
			pw.AlignedBytes("rec", 64, make([]byte, 64*n)) // post, min, out[4], in[3]
			pw.Checksum()
		}},
		{"pll", 1, "version 1", func(pw *persist.Writer) {
			pw.Section("meta", func(e *persist.Encoder) { e.String("PLL"); e.U32(n) })
			pw.Section("rank", func(e *persist.Encoder) { e.U32s(make([]uint32, n)) })
			pw.Section("labels", func(e *persist.Encoder) {
				for v := uint32(0); v < n; v++ {
					e.U32s([]uint32{v}) // in-labels
					e.U32s([]uint32{v}) // out-labels
				}
			})
		}},
		{"pll", 2, "varint", func(pw *persist.Writer) {
			pw.Section("meta", func(e *persist.Encoder) {
				e.String("PLL")
				e.U32(n)
				e.U32(1) // the label encoding word: delta-varint
				e.U64(uint64(n))
				e.U64(uint64(n))
			})
			pw.U32s("rank", make([]uint32, n))
			offs := make([]uint32, n+1)
			for v := range offs {
				offs[v] = uint32(v)
			}
			pw.U32s("inoff", offs)
			pw.U32s("outoff", offs)
			pw.AlignedBytes("indata", 1, make([]byte, n)) // one entry, 0, per row
			pw.AlignedBytes("outdata", 1, make([]byte, n))
			pw.Checksum()
		}},
	} {
		var buf bytes.Buffer
		pw := persist.NewWriter(&buf, old.format, old.version)
		old.write(pw)
		if _, err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "old.snap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, errRead := LoadIndex(bytes.NewReader(buf.Bytes()), g, Options{})
		_, errMap := LoadIndexMapped(path, g, Options{})
		for call, err := range map[string]error{"LoadIndex": errRead, "LoadIndexMapped": errMap} {
			if err == nil || !strings.Contains(err.Error(), old.want) || !strings.Contains(err.Error(), "rebuild") {
				t.Errorf("%s v%d %s: err = %v, want one naming %q and saying to rebuild", old.format, old.version, call, err, old.want)
			}
		}
	}
}

// TestLoadIndexAcceptsRandomHashSnapshot: a BFL version 4 snapshot
// written when BFL still hashed ids to filter bits (kept in
// internal/bfl/testdata; internal/bfl's TestRandomHashOracleWritesFixture
// shows the random-hash build writes it byte for byte) loads through
// LoadIndex and LoadIndexMapped and answers every pair exactly. A query
// only tests filter subsets and never hashes, so the bit map is no part
// of the layout and the version stays 4.
func TestLoadIndexAcceptsRandomHashSnapshot(t *testing.T) {
	loadsExactly(t, "internal/bfl/testdata/v4-random-hash.snap", gen.ErdosRenyi(gen.Config{N: 400, M: 600, Seed: 4001}))
}

// TestLoadIndexAcceptsOnePartitionSnapshot: a BFL version 4 snapshot
// written when both filters took their bits from one partition of the
// ids, before Lin took coarser groups of its own (internal/bfl's
// TestOnePartitionOracleWritesFixture shows that build writes it byte
// for byte), loads through LoadIndex and LoadIndexMapped and answers
// every pair exactly: no version bump.
func TestLoadIndexAcceptsOnePartitionSnapshot(t *testing.T) {
	loadsExactly(t, "internal/bfl/testdata/v4-one-partition.snap", gen.RandomDAG(gen.Config{N: 500, M: 1500, Seed: 4201}))
}

// loadsExactly loads the BFL snapshot at path, built over g, through
// LoadIndex and LoadIndexMapped and checks every pair against the
// transitive closure.
func loadsExactly(t *testing.T, path string, g *Graph) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := LoadIndex(bytes.NewReader(raw), g, Options{})
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	mapped, err := LoadIndexMapped(path, g, Options{})
	if err != nil {
		t.Fatalf("LoadIndexMapped: %v", err)
	}
	if streamed.Name() != "BFL" || mapped.Name() != "BFL" {
		t.Fatalf("loaded %s and %s, want BFL", streamed.Name(), mapped.Name())
	}
	oracle := tc.NewClosure(g)
	for s := V(0); int(s) < g.N(); s++ {
		for tt := V(0); int(tt) < g.N(); tt++ {
			want := oracle.Reach(s, tt)
			if got := streamed.Reach(s, tt); got != want {
				t.Fatalf("LoadIndex: Reach(%d, %d) = %v, want %v", s, tt, got, want)
			}
			if got := mapped.Reach(s, tt); got != want {
				t.Fatalf("LoadIndexMapped: Reach(%d, %d) = %v, want %v", s, tt, got, want)
			}
		}
	}
}

// TestSnapshotRefusesMalformedLabelRow: a PLL snapshot with two entries
// of one label row swapped, whose checksum was recomputed to match, fails
// both load calls with an error. Trusting the checksum alone would load
// it, and the query merge could step past a hub the two rows share and
// answer false.
func TestSnapshotRefusesMalformedLabelRow(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 19})
	ix, err := Build(KindPLL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotOf(t, ix)
	// array returns the little-endian words of a 4-byte-aligned array
	// section: its name, u64 length, then the u32 align | u32 pad header,
	// pad zero bytes and the array.
	array := func(name string) []byte {
		hdr := bytes.Index(raw, append([]byte{byte(len(name)), 0}, name...))
		if hdr < 0 {
			t.Fatalf("no %s section", name)
		}
		at := hdr + 2 + len(name)
		size := int(binary.LittleEndian.Uint64(raw[at:]))
		pad := int(binary.LittleEndian.Uint32(raw[at+12:]))
		return raw[at+16+pad : at+8+size]
	}
	off, lab := array("inoff"), array("inlab")
	swapped := false
	for v := 0; v+1 < len(off)/4 && !swapped; v++ {
		lo, hi := binary.LittleEndian.Uint32(off[4*v:]), binary.LittleEndian.Uint32(off[4*v+4:])
		if hi-lo >= 2 {
			a, b := lab[4*lo:], lab[4*lo+4:]
			x, y := binary.LittleEndian.Uint32(a), binary.LittleEndian.Uint32(b)
			binary.LittleEndian.PutUint32(a, y)
			binary.LittleEndian.PutUint32(b, x)
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("no in-label row with two entries")
	}
	// Recompute the trailing checksum: the crc32 section is the last 19
	// bytes (name 2+5, length 8, CRC 4) and covers everything before it.
	body := len(raw) - 19
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(raw[:body], crc32.MakeTable(crc32.Castagnoli)))

	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errRead := LoadIndex(bytes.NewReader(raw), g, Options{})
	_, errMap := LoadIndexMapped(path, g, Options{})
	for call, err := range map[string]error{"LoadIndex": errRead, "LoadIndexMapped": errMap} {
		if err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
			t.Errorf("%s: err = %v, want a not-strictly-ascending error", call, err)
		}
	}
}

// TestMappedLoadAllocsDoNotGrowWithN: page-mapping a PLL snapshot
// allocates the same number of heap objects (±8) at n=3000 and n=12000,
// and at most 1/100 of the bytes that reading the same snapshot into
// memory through LoadIndex allocates — the labels are views into the
// mapping, not copies.
func TestMappedLoadAllocsDoNotGrowWithN(t *testing.T) {
	var objects [2]uint64
	for i, n := range []int{3000, 12_000} {
		g := gen.RandomDAG(gen.Config{N: n, M: 3 * n, Seed: 13})
		ix, err := Build(KindPLL, g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stream := snapshotOf(t, ix)
		var buf bytes.Buffer
		if err := SaveIndex(&buf, ix); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "pll.snap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := persist.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		mapped := m.Mmapped()
		m.Close()
		if !mapped {
			t.Skip("no mmap on this platform: the mapped layout is read into memory")
		}
		mObjects, mBytes := loadAllocs(t, func() (Index, error) { return LoadIndexMapped(path, g, Options{}) })
		_, dBytes := loadAllocs(t, func() (Index, error) { return LoadIndex(bytes.NewReader(stream), g, Options{}) })
		t.Logf("n=%d: mapped load %d objects, %d B; decode %d B", n, mObjects, mBytes, dBytes)
		if mBytes*100 > dBytes {
			t.Errorf("n=%d: mapped load allocates %d B, decode %d B: want at most 1/100", n, mBytes, dBytes)
		}
		objects[i] = mObjects
	}
	if d := int64(objects[1]) - int64(objects[0]); d < -8 || d > 8 {
		t.Errorf("mapped load allocates %d objects at n=3000 and %d at n=12000: want equal ±8", objects[0], objects[1])
	}
}

// loadAllocs returns the heap objects and bytes one load allocates, by
// MemStats deltas, as the least of three runs.
func loadAllocs(t *testing.T, load func() (Index, error)) (objects, size uint64) {
	t.Helper()
	for r := 0; r < 3; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := load()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(ix)
		if o, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; r == 0 || b < size {
			objects, size = o, b
		}
	}
	return objects, size
}

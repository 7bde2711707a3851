package reach

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/persist"
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

// TestSnapshotMappedEquivalence is the acceptance matrix for the two
// snapshot layouts: for each snapshottable kind and label encoding,
// build → SaveIndex → LoadIndex, build → SaveIndexMapped →
// LoadIndexMapped, and build → SaveIndexMapped → LoadIndex (the mapped
// layout is streaming-decodable too) must all answer identically to the
// fresh index, on Figure 1 and on a 12k-vertex DAG.
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
		{"pll-varint", KindPLL, Options{LabelEnc: EncVarint}},
		{"dl-varint", KindDL, Options{LabelEnc: EncVarint}},
	}
	for _, gc := range graphs {
		for _, tc := range cases {
			t.Run(gc.name+"/"+tc.name, func(t *testing.T) {
				g := gc.g
				fresh, err := Build(tc.kind, g, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				var v1, mapped bytes.Buffer
				if err := SaveIndex(&v1, fresh); err != nil {
					t.Fatalf("SaveIndex: %v", err)
				}
				if err := SaveIndexMapped(&mapped, fresh); err != nil {
					t.Fatalf("SaveIndexMapped: %v", err)
				}
				path := filepath.Join(t.TempDir(), "ix.snap")
				if err := os.WriteFile(path, mapped.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				loadedV1, err := LoadIndex(bytes.NewReader(v1.Bytes()), g, Options{})
				if err != nil {
					t.Fatalf("LoadIndex(v1): %v", err)
				}
				loadedV2, err := LoadIndex(bytes.NewReader(mapped.Bytes()), g, Options{})
				if err != nil {
					t.Fatalf("LoadIndex(mapped layout): %v", err)
				}
				loadedMap, err := LoadIndexMapped(path, g, Options{})
				if err != nil {
					t.Fatalf("LoadIndexMapped: %v", err)
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
					for j, ld := range []Index{loadedV1, loadedV2, loadedMap} {
						if got := ld.Reach(s, tv); got != want {
							t.Fatalf("loaded[%d].Reach(%d,%d) = %v, fresh says %v", j, s, tv, got, want)
						}
					}
				}
			})
		}
	}
}

// TestLoadIndexMappedCorruption flips bytes across a mapped snapshot
// file; every corrupted load must fail the checksum (or section parse)
// cleanly — an error, never a panic, never a silently-wrong index.
func TestLoadIndexMappedCorruption(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 500, M: 1_500, Seed: 17})
	ix, err := Build(KindPLL, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndexMapped(&buf, ix); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
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
	var buf bytes.Buffer
	if err := SaveIndexMapped(&buf, ix); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pll.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
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

// TestLoadIndexRefusesOldBFLLayouts: a BFL snapshot in the version-1 or
// version-2 layout (interval and filter arrays in separate sections) is
// refused by LoadIndex, and the version-2 one by LoadIndexMapped, with an
// error naming the version — never a panic, never a wrong index.
func TestLoadIndexRefusesOldBFLLayouts(t *testing.T) {
	g := Fig1Plain()
	n := uint32(g.N())
	meta := func(e *persist.Encoder) { e.U32(n); e.U32(4) }
	for v, write := range map[uint16]func(pw *persist.Writer){
		1: func(pw *persist.Writer) {
			pw.Section("meta", meta)
			pw.Section("intervals", func(e *persist.Encoder) { e.U32s(make([]uint32, 2*n)) })
			pw.Section("filters", func(e *persist.Encoder) { e.U64s(make([]uint64, 8*n)) })
		},
		2: func(pw *persist.Writer) {
			pw.Section("meta", meta)
			pw.AlignedU32s("post", make([]uint32, n))
			pw.AlignedU32s("min", make([]uint32, n))
			pw.AlignedU64s("fout", make([]uint64, 4*n))
			pw.AlignedU64s("fin", make([]uint64, 4*n))
			pw.Checksum()
		},
	} {
		var buf bytes.Buffer
		pw := persist.NewWriter(&buf, "bfl", v)
		write(pw)
		if _, err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version %d", v)
		if _, err := LoadIndex(bytes.NewReader(buf.Bytes()), g, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d LoadIndex: err = %v, want one naming %q", v, err, want)
		}
		if v == 1 {
			continue // no checksum: never a mapped layout
		}
		path := filepath.Join(t.TempDir(), "old.snap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndexMapped(path, g, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("v%d LoadIndexMapped: err = %v, want one naming %q", v, err, want)
		}
	}
}

// TestMappedLoadAllocsDoNotGrowWithN: page-mapping a PLL snapshot
// allocates the same number of heap objects (±8) at n=3000 and n=12000,
// and at most 1/100 of the bytes that decoding the same labels through
// the streaming codec allocates — the labels are views into the mapping,
// not copies.
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
		if err := SaveIndexMapped(&buf, ix); err != nil {
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

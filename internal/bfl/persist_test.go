package bfl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/persist"
)

// agreeEverywhere checks got answers every pair identically to want.
func agreeEverywhere(t *testing.T, g *graph.Digraph, want, got *Index) {
	t.Helper()
	for s := graph.V(0); int(s) < g.N(); s++ {
		for tt := graph.V(0); int(tt) < g.N(); tt++ {
			if want.Reach(s, tt) != got.Reach(s, tt) {
				t.Fatalf("loaded index disagrees at (%d, %d)", s, tt)
			}
		}
	}
}

// openMapped writes b to a file and maps it.
func openMapped(t *testing.T, b []byte) (*persist.Mapped, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bfl.snap")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return persist.OpenMapped(path)
}

// readStream loads a snapshot from a stream, as reach.LoadIndex does.
func readStream(b []byte, dag *graph.Digraph) (*Index, error) {
	m, err := persist.ReadMapped(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return FromMapped(m, dag)
}

func TestPersistRoundTrip(t *testing.T) {
	ix, c := build(gen.RandomDAG(gen.Config{N: 180, M: 540, Seed: 21}), Options{Seed: 5})
	g := c.DAG

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readStream(buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	agreeEverywhere(t, g, ix, got)
	if got.Stats().Bytes != ix.Stats().Bytes || got.Stats().Entries != ix.Stats().Entries {
		t.Errorf("loaded Stats %+v, built %+v", got.Stats(), ix.Stats())
	}
}

func TestPersistMappedRoundTrip(t *testing.T) {
	ix, c := build(gen.RandomDAG(gen.Config{N: 180, M: 540, Seed: 22}), Options{Seed: 6})
	g := c.DAG

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// The snapshot binds from a stream.
	streamed, err := readStream(buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	agreeEverywhere(t, g, ix, streamed)

	// And loads zero-copy through the mapped path.
	m, err := openMapped(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := FromMapped(m, g)
	if err != nil {
		t.Fatal(err)
	}
	agreeEverywhere(t, g, ix, mapped)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistTruncationAndCorruption: every truncation of a snapshot and
// every byte flip in it fails to load with an error, never a panic, both
// page-mapped from a file and read from a stream.
func TestPersistTruncationAndCorruption(t *testing.T) {
	ix, c := build(gen.RandomDAG(gen.Config{N: 150, M: 450, Seed: 25}), Options{Seed: 8})
	g := c.DAG
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut += 37 {
		if _, err := readStream(raw[:cut], g); err == nil {
			t.Fatalf("streamed truncation at %d loaded without error", cut)
		}
		if m, err := openMapped(t, raw[:cut]); err == nil {
			if _, err := FromMapped(m, g); err == nil {
				t.Fatalf("mapped truncation at %d loaded without error", cut)
			}
			m.Close()
		}
	}
	for pos := 0; pos < len(raw); pos += 53 {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x5A
		if _, err := readStream(bad, g); err == nil {
			t.Fatalf("streamed flip at byte %d loaded without error", pos)
		}
		if m, err := openMapped(t, bad); err == nil {
			if _, err := FromMapped(m, g); err == nil {
				t.Fatalf("flip at byte %d loaded without error", pos)
			}
			m.Close()
		}
	}
}

func TestPersistWrongGraph(t *testing.T) {
	ix, _ := build(gen.RandomDAG(gen.Config{N: 120, M: 360, Seed: 23}), Options{Seed: 7})
	other := gen.RandomDAG(gen.Config{N: 121, M: 360, Seed: 24})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := readStream(buf.Bytes(), other); err == nil {
		t.Fatal("vertex-count mismatch not detected")
	}
}

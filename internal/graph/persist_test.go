package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

func namedTestGraph() *Digraph {
	b := NewBuilder(0)
	b.AddNamedEdge("A", "knows", "B")
	b.AddNamedEdge("B", "knows", "C")
	b.AddNamedEdge("A", "likes", "C")
	b.AddNamedEdge("C", "knows", "D")
	return b.MustFreeze()
}

func plainTestGraph() *Digraph {
	b := NewBuilder(6)
	for _, e := range [][2]V{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {1, 5}} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustFreeze()
}

func sameGraph(t *testing.T, got, want *Digraph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("got %d vertices / %d edges, want %d / %d", got.N(), got.M(), want.N(), want.M())
	}
	if got.Labeled() != want.Labeled() || got.Labels() != want.Labels() {
		t.Fatalf("label universe mismatch: %v/%d vs %v/%d",
			got.Labeled(), got.Labels(), want.Labeled(), want.Labels())
	}
	ge, we := got.EdgeList(), want.EdgeList()
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("edge %d = %v, want %v", i, ge[i], we[i])
		}
	}
	for v := 0; v < want.N(); v++ {
		if got.VertexName(V(v)) != want.VertexName(V(v)) {
			t.Fatalf("vertex %d named %q, want %q", v, got.VertexName(V(v)), want.VertexName(V(v)))
		}
	}
}

func TestSnapshotRoundTripStream(t *testing.T) {
	for name, g := range map[string]*Digraph{"plain": plainTestGraph(), "labeled": namedTestGraph()} {
		var buf bytes.Buffer
		n, err := g.WriteSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("%s: WriteSnapshot reported %d bytes, wrote %d", name, n, buf.Len())
		}
		m, err := persist.ReadMapped(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		back, err := FromMapped(m)
		if err != nil {
			t.Fatalf("%s: bind: %v", name, err)
		}
		sameGraph(t, back, g)
	}
}

func TestSnapshotRoundTripMapped(t *testing.T) {
	g := namedTestGraph()
	path := filepath.Join(t.TempDir(), "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, back, g)
	// The mapped graph must serve the full named query surface.
	for _, name := range []string{"A", "B", "C", "D"} {
		if _, ok := back.VertexByName(name); !ok {
			t.Fatalf("VertexByName(%q) missed on mapped graph", name)
		}
	}
	if _, ok := back.VertexByName("nope"); ok {
		t.Fatal("unknown name resolved on mapped graph")
	}
}

func TestSnapshotCorruptionRejected(t *testing.T) {
	g := namedTestGraph()
	var buf bytes.Buffer
	if _, err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	// load reads b both ways, page-mapped from a file and from a stream,
	// and returns the first success as a nil error.
	load := func(b []byte) error {
		path := filepath.Join(dir, "snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errMap := LoadSnapshot(path)
		m, errRead := persist.ReadMapped(bytes.NewReader(b))
		if errRead == nil {
			_, errRead = FromMapped(m)
		}
		if errMap == nil || errRead == nil {
			return nil
		}
		return errMap
	}
	// Flip one byte at every offset: each variant must be rejected (the
	// checksum catches it), never panic or load silently.
	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		if err := load(bad); err == nil {
			t.Fatalf("corruption at offset %d loaded silently", off)
		}
	}
	// Truncations at every length short of the full file.
	for cut := 0; cut < len(good); cut += 7 {
		if err := load(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes loaded silently", cut)
		}
	}
	path := filepath.Join(dir, "good")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if m, err := persist.ReadMapped(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected from a stream: %v", err)
	} else if _, err := FromMapped(m); err != nil {
		t.Fatalf("pristine snapshot rejected from a stream: %v", err)
	}
}

// TestVertexByNameMemo covers the memoized name→vertex map: O(1) repeat
// lookups, sharing with Reverse views, and the zero-holder fallback.
func TestVertexByNameMemo(t *testing.T) {
	g := namedTestGraph()
	for i := 0; i < 3; i++ { // repeated lookups hit the memo
		for want := 0; want < 4; want++ {
			name := []string{"A", "B", "C", "D"}[want]
			v, ok := g.VertexByName(name)
			if !ok || int(v) != want {
				t.Fatalf("VertexByName(%q) = %d, %v; want %d", name, v, ok, want)
			}
		}
	}
	if _, ok := g.VertexByName("Z"); ok {
		t.Fatal("unknown name resolved")
	}
	// Reverse shares the holder: same memo, same answers.
	r := g.Reverse()
	if r.names != g.names {
		t.Fatal("Reverse view does not share the name index")
	}
	if v, ok := r.VertexByName("D"); !ok || v != 3 {
		t.Fatalf("reverse VertexByName(D) = %d, %v", v, ok)
	}
	// Zero-holder graphs fall back to the linear scan.
	bare := &Digraph{vertName: []string{"x", "y"}}
	if v, ok := bare.VertexByName("y"); !ok || v != 1 {
		t.Fatalf("fallback VertexByName(y) = %d, %v", v, ok)
	}
}

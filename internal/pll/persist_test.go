package pll

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/persist"
	"repro/internal/tc"
)

// readStream loads a snapshot from a stream, as reach.LoadIndex does.
func readStream(b []byte) (*Index, error) {
	m, err := persist.ReadMapped(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return FromMapped(m)
}

// openMapped writes b to a file and binds it page-mapped, as
// reach.LoadIndexMapped does.
func openMapped(t *testing.T, b []byte) (*Index, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pll.rix")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := persist.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	return FromMapped(m)
}

func TestPersistRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 120, M: 480, Seed: 1})
	ix := New(g, Options{})
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || int(n) != buf.Len() {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := readStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != ix.Name() {
		t.Errorf("name %q -> %q", ix.Name(), back.Name())
	}
	if back.Stats().Entries != ix.Stats().Entries {
		t.Errorf("entries %d -> %d", ix.Stats().Entries, back.Stats().Entries)
	}
	oracle := tc.NewClosure(g)
	for s := graph.V(0); int(s) < g.N(); s++ {
		for tt := graph.V(0); int(tt) < g.N(); tt++ {
			if back.Reach(s, tt) != oracle.Reach(s, tt) {
				t.Fatalf("deserialized index wrong at (%d,%d)", s, tt)
			}
		}
	}
}

func TestPersistErrors(t *testing.T) {
	if _, err := readStream(nil); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := readStream([]byte("NOPE....")); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated stream.
	g := gen.RandomDAG(gen.Config{N: 20, M: 40, Seed: 2})
	ix := New(g, Options{})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := readStream(trunc); err == nil {
		t.Error("truncated stream should fail")
	}
	// A snapshot of another format.
	var other bytes.Buffer
	pw := persist.NewWriter(&other, "bfl", persistVersion)
	pw.Checksum()
	pw.Close()
	if _, err := readStream(other.Bytes()); err == nil || !strings.Contains(err.Error(), `format "bfl"`) {
		t.Errorf("wrong format: err = %v", err)
	}
}

// TestPersistMappedRoundTrip: an index loads from a stream and
// page-mapped from a file, answers like the transitive closure, and every
// truncation and byte flip of the snapshot fails both ways with an error,
// never a panic.
func TestPersistMappedRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(gen.Config{N: 120, M: 480, Seed: 4})
	oracle := tc.NewClosure(g)
	ix := New(g, Options{})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	streamed, err := readStream(raw)
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	mapped, err := openMapped(t, raw)
	if err != nil {
		t.Fatalf("mapped read: %v", err)
	}
	for _, back := range []*Index{streamed, mapped} {
		if back.Name() != ix.Name() || back.Stats().Entries != ix.Stats().Entries {
			t.Fatal("loaded meta mismatch")
		}
	}
	for s := graph.V(0); int(s) < g.N(); s++ {
		for tt := graph.V(0); int(tt) < g.N(); tt++ {
			want := oracle.Reach(s, tt)
			if streamed.Reach(s, tt) != want || mapped.Reach(s, tt) != want {
				t.Fatalf("loaded index wrong at (%d,%d)", s, tt)
			}
		}
	}

	for cut := 0; cut < len(raw); cut += 211 {
		if _, err := readStream(raw[:cut]); err == nil {
			t.Fatalf("streamed truncation at %d accepted", cut)
		}
		if _, err := openMapped(t, raw[:cut]); err == nil {
			t.Fatalf("mapped truncation at %d accepted", cut)
		}
	}
	for pos := 0; pos < len(raw); pos += 97 {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x5A
		if _, err := readStream(bad); err == nil {
			t.Fatalf("streamed flip at byte %d accepted", pos)
		}
		if _, err := openMapped(t, bad); err == nil {
			t.Fatalf("mapped flip at byte %d accepted", pos)
		}
	}
}

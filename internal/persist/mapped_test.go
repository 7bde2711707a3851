package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// writeMappedFixture writes a snapshot in the aligned layout: one meta
// section, one u32 array, one u64 array, one byte stream, checksum.
func writeMappedFixture(t *testing.T, path string, u32s []uint32, u64s []uint64, blob []byte) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	pw := NewWriter(f, "fixture", 2)
	pw.Section("meta", func(e *Encoder) {
		e.U32(uint32(len(u32s)))
		e.String("hello")
	})
	pw.AlignedU32s("offs", u32s)
	pw.AlignedU64s("words", u64s)
	pw.AlignedBytes("stream", 1, blob)
	pw.Checksum()
	if _, err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func checkFixture(t *testing.T, m *Mapped, u32s []uint32, u64s []uint64, blob []byte) {
	t.Helper()
	if m.Format() != "fixture" || m.Version() != 2 {
		t.Fatalf("format %q v%d", m.Format(), m.Version())
	}
	d, err := m.Section("meta")
	if err != nil {
		t.Fatal(err)
	}
	if n := d.U32(); int(n) != len(u32s) {
		t.Fatalf("meta n = %d", n)
	}
	if s := d.String(); s != "hello" {
		t.Fatalf("meta s = %q", s)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got32, err := m.U32s("offs")
	if err != nil {
		t.Fatal(err)
	}
	for i := range u32s {
		if got32[i] != u32s[i] {
			t.Fatalf("u32[%d] = %d want %d", i, got32[i], u32s[i])
		}
	}
	got64, err := m.U64s("words")
	if err != nil {
		t.Fatal(err)
	}
	for i := range u64s {
		if got64[i] != u64s[i] {
			t.Fatalf("u64[%d] = %d want %d", i, got64[i], u64s[i])
		}
	}
	gotB, err := m.Bytes("stream")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, blob) {
		t.Fatalf("stream = %x want %x", gotB, blob)
	}
}

func fixtureData() ([]uint32, []uint64, []byte) {
	u32s := make([]uint32, 1001)
	for i := range u32s {
		u32s[i] = uint32(i * 7)
	}
	u64s := []uint64{0, ^uint64(0), 0xdeadbeefcafef00d}
	blob := []byte{1, 2, 3, 4, 5, 6, 7} // odd length: exercises padding after it
	return u32s, u64s, blob
}

func TestMappedRoundTrip(t *testing.T) {
	u32s, u64s, blob := fixtureData()
	path := filepath.Join(t.TempDir(), "fx.rix")
	writeMappedFixture(t, path, u32s, u64s, blob)

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	checkFixture(t, m, u32s, u64s, blob)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestMappedFallbackNoMmap(t *testing.T) {
	u32s, u64s, blob := fixtureData()
	path := filepath.Join(t.TempDir(), "fx.rix")
	writeMappedFixture(t, path, u32s, u64s, blob)

	disableMmap.Store(true)
	defer disableMmap.Store(false)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mmapped() {
		t.Fatal("expected fallback, got real mapping")
	}
	checkFixture(t, m, u32s, u64s, blob)
}

func TestMappedStreamingDecoderReadsAlignedSections(t *testing.T) {
	// The same file must decode through the ordinary streaming Reader.
	u32s, u64s, blob := fixtureData()
	path := filepath.Join(t.TempDir(), "fx.rix")
	writeMappedFixture(t, path, u32s, u64s, blob)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pr, format, err := NewReaderAny(f)
	if err != nil {
		t.Fatal(err)
	}
	if format != "fixture" || pr.Version() != 2 {
		t.Fatalf("format %q v%d", format, pr.Version())
	}
	d, err := pr.Section("meta")
	if err != nil {
		t.Fatal(err)
	}
	d.U32()
	_ = d.String()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = pr.Section("offs"); err != nil {
		t.Fatal(err)
	}
	got32 := d.AlignedU32s()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got32) != len(u32s) || got32[1000] != u32s[1000] {
		t.Fatalf("streaming u32s: len %d", len(got32))
	}
	if d, err = pr.Section("words"); err != nil {
		t.Fatal(err)
	}
	got64 := d.AlignedU64s()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got64) != 3 || got64[2] != u64s[2] {
		t.Fatalf("streaming u64s: %v", got64)
	}
	if d, err = pr.Section("stream"); err != nil {
		t.Fatal(err)
	}
	gotB := d.AlignedBytes()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, blob) {
		t.Fatalf("streaming bytes: %x", gotB)
	}
}

func TestMappedChecksumMismatch(t *testing.T) {
	u32s, u64s, blob := fixtureData()
	dir := t.TempDir()
	path := filepath.Join(dir, "fx.rix")
	writeMappedFixture(t, path, u32s, u64s, blob)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle (a label page) — must be rejected.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	badPath := filepath.Join(dir, "bad.rix")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(badPath); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}

	// Every strict prefix must error, never panic.
	for cut := 0; cut < len(data); cut += 97 {
		p := filepath.Join(dir, "trunc.rix")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(p); err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
	}

	// A snapshot without a checksum section is not mappable.
	var buf bytes.Buffer
	pw := NewWriter(&buf, "fixture", 2)
	pw.AlignedU32s("offs", u32s)
	pw.Close()
	p := filepath.Join(dir, "nockz.rix")
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(p); err == nil {
		t.Fatal("checksum-less snapshot accepted by mapped path")
	}
}

func TestMappedAlignment(t *testing.T) {
	// Arrays must land on file offsets matching their declared alignment
	// regardless of preceding section sizes; vary meta length to shift
	// offsets around.
	for pad := 0; pad < 9; pad++ {
		var buf bytes.Buffer
		pw := NewWriter(&buf, "fx", 1)
		s := make([]byte, pad)
		pw.Section("meta", func(e *Encoder) { e.String(string(s)) })
		pw.AlignedU32s("a", []uint32{1, 2, 3})
		pw.AlignedU64s("b", []uint64{4, 5})
		pw.Checksum()
		if _, err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fx.rix")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		a, err := m.U32s("a")
		if err != nil || len(a) != 3 || a[2] != 3 {
			t.Fatalf("pad %d: a=%v err=%v", pad, a, err)
		}
		b, err := m.U64s("b")
		if err != nil || len(b) != 2 || b[1] != 5 {
			t.Fatalf("pad %d: b=%v err=%v", pad, b, err)
		}
		m.Close()
	}
}

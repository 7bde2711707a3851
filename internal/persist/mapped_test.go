package persist

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// writeMappedFixture writes a snapshot in the aligned layout: one meta
// section, one u32 array, one u16 array, one byte stream, checksum.
func writeMappedFixture(t *testing.T, path string, u32s []uint32, u16s []uint16, blob []byte) {
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
	pw.U32s("offs", u32s)
	pw.U16s("labs", u16s)
	pw.AlignedBytes("stream", 1, blob)
	pw.Checksum()
	if _, err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func checkFixture(t *testing.T, m *Mapped, u32s []uint32, u16s []uint16, blob []byte) {
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
	if len(got32) != len(u32s) {
		t.Fatalf("u32 len %d want %d", len(got32), len(u32s))
	}
	for i := range u32s {
		if got32[i] != u32s[i] {
			t.Fatalf("u32[%d] = %d want %d", i, got32[i], u32s[i])
		}
	}
	got16, err := m.U16s("labs")
	if err != nil {
		t.Fatal(err)
	}
	if len(got16) != len(u16s) {
		t.Fatalf("u16 len %d want %d", len(got16), len(u16s))
	}
	for i := range u16s {
		if got16[i] != u16s[i] {
			t.Fatalf("u16[%d] = %d want %d", i, got16[i], u16s[i])
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

func fixtureData() ([]uint32, []uint16, []byte) {
	u32s := make([]uint32, 1001)
	for i := range u32s {
		u32s[i] = uint32(i * 7)
	}
	u16s := []uint16{0, ^uint16(0), 0xbeef}
	blob := []byte{1, 2, 3, 4, 5, 6, 7} // odd length: exercises padding after it
	return u32s, u16s, blob
}

func TestMappedRoundTrip(t *testing.T) {
	u32s, u16s, blob := fixtureData()
	path := filepath.Join(t.TempDir(), "fx.rix")
	writeMappedFixture(t, path, u32s, u16s, blob)

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	checkFixture(t, m, u32s, u16s, blob)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestMappedFallbackNoMmap(t *testing.T) {
	u32s, u16s, blob := fixtureData()
	path := filepath.Join(t.TempDir(), "fx.rix")
	writeMappedFixture(t, path, u32s, u16s, blob)

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
	checkFixture(t, m, u32s, u16s, blob)

	// Bytes after the checksum section are refused here as on the
	// mapped path.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil {
		t.Fatal("trailing byte accepted by the fallback")
	}
}

// TestReadMappedMatchesOpenMapped: a snapshot read from a stream gives
// the same views as the page-mapped file, zero-copy into a line-aligned
// buffer, and leaves the stream just past the checksum section.
func TestReadMappedMatchesOpenMapped(t *testing.T) {
	u32s, u16s, blob := fixtureData()
	path := filepath.Join(t.TempDir(), "fx.rix")
	writeMappedFixture(t, path, u32s, u16s, blob)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	stream := bytes.NewReader(append(raw[:len(raw):len(raw)], "tail"...))
	hm, err := ReadMapped(stream)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Mmapped() {
		t.Fatal("ReadMapped reports a real mapping")
	}
	if rest, _ := io.ReadAll(stream); string(rest) != "tail" {
		t.Fatalf("stream left at %q, want the bytes after the snapshot", rest)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(hm.data)))%heapAlign != 0 {
		t.Fatal("ReadMapped buffer is not line-aligned")
	}
	for _, m := range []*Mapped{mm, hm} {
		checkFixture(t, m, u32s, u16s, blob)
	}
	for _, name := range []string{"offs", "labs", "stream"} {
		a, err := mm.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hm.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("section %q differs between OpenMapped and ReadMapped", name)
		}
	}
	// The typed view aliases the buffer: no copy was made.
	b, _ := hm.Bytes("offs")
	if got, _ := hm.U32s("offs"); unsafe.Pointer(&got[0]) != unsafe.Pointer(&b[0]) {
		t.Fatal("ReadMapped U32s copied instead of viewing the buffer")
	}
}

func TestMappedChecksumMismatch(t *testing.T) {
	u32s, u16s, blob := fixtureData()
	dir := t.TempDir()
	path := filepath.Join(dir, "fx.rix")
	writeMappedFixture(t, path, u32s, u16s, blob)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// load opens b both ways: page-mapped from a file, and from a stream.
	load := func(name string, b []byte) (error, error) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errOpen := OpenMapped(p)
		_, errRead := ReadMapped(bytes.NewReader(b))
		return errOpen, errRead
	}

	// Flip one byte in the middle (a label page) — must be rejected.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if e1, e2 := load("bad.rix", bad); e1 == nil || e2 == nil {
		t.Fatalf("corrupted snapshot accepted: OpenMapped %v, ReadMapped %v", e1, e2)
	}

	// Every strict prefix must error, never panic.
	for cut := 0; cut < len(data); cut += 97 {
		if e1, e2 := load("trunc.rix", data[:cut]); e1 == nil || e2 == nil {
			t.Fatalf("prefix of %d bytes accepted: OpenMapped %v, ReadMapped %v", cut, e1, e2)
		}
	}

	// A snapshot without a checksum section is refused, naming its
	// version.
	var buf bytes.Buffer
	pw := NewWriter(&buf, "fixture", 2)
	pw.U32s("offs", u32s)
	pw.Close()
	e1, e2 := load("nockz.rix", buf.Bytes())
	for _, err := range []error{e1, e2} {
		if err == nil || !strings.Contains(err.Error(), "fixture snapshot version 2 has no checksum") {
			t.Fatalf("checksum-less snapshot: err = %v", err)
		}
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
		pw.U32s("a", []uint32{1, 2, 3})
		pw.AlignedBytes("b", 64, []byte{4, 5})
		pw.Checksum()
		if _, err := pw.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fx.rix")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mm, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		hm, err := ReadMapped(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		for _, m := range []*Mapped{mm, hm} {
			a, err := m.U32s("a")
			if err != nil || len(a) != 3 || a[2] != 3 {
				t.Fatalf("pad %d: a=%v err=%v", pad, a, err)
			}
			b, err := m.Bytes("b")
			if err != nil || len(b) != 2 || b[1] != 5 {
				t.Fatalf("pad %d: b=%v err=%v", pad, b, err)
			}
			if p := uintptr(unsafe.Pointer(&b[0])); p%64 != 0 {
				t.Fatalf("pad %d: 64-byte section at %#x", pad, p)
			}
		}
		mm.Close()
	}
}

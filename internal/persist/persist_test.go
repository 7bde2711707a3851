package persist

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// writeSample emits a two-section snapshot exercising every encoder
// primitive; the decode helpers below read it back.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, "sample", 3)
	w.Section("meta", func(e *Encoder) {
		e.String("hello")
		e.U32(42)
		e.U64(1 << 40)
	})
	w.Section("data", func(e *Encoder) {
		e.U32s([]uint32{1, 2, 3})
		e.U32s(nil)
	})
	n, err := w.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Close reported %d bytes, buffer has %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := writeSample(t)
	r, err := NewReader(bytes.NewReader(raw), "sample", 3)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	name, meta, err := r.Next()
	if err != nil || name != "meta" {
		t.Fatalf("Next = %q, %v; want meta", name, err)
	}
	if s := meta.String(); s != "hello" {
		t.Errorf("String = %q", s)
	}
	if v := meta.U32(); v != 42 {
		t.Errorf("U32 = %d", v)
	}
	if v := meta.U64(); v != 1<<40 {
		t.Errorf("U64 = %d", v)
	}
	if err := meta.Close(); err != nil {
		t.Fatalf("meta Close: %v", err)
	}
	name, data, err := r.Next()
	if err != nil || name != "data" {
		t.Fatalf("Next = %q, %v; want data", name, err)
	}
	if got := data.U32s(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("U32s = %v", got)
	}
	if got := data.U32s(); len(got) != 0 {
		t.Errorf("empty U32s = %v", got)
	}
	if err := data.Close(); err != nil {
		t.Fatalf("data Close: %v", err)
	}
}

// TestTruncationNeverPanics decodes every strict prefix of a valid
// snapshot; each must fail with an error, and none may panic or succeed.
func TestTruncationNeverPanics(t *testing.T) {
	raw := writeSample(t)
	for cut := 0; cut < len(raw); cut++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("prefix of %d bytes panicked: %v", cut, p)
				}
			}()
			r, err := NewReader(bytes.NewReader(raw[:cut]), "sample", 3)
			if err != nil {
				return // header truncation: reported at open
			}
			for _, name := range []string{"meta", "data"} {
				_, d, err := r.Next()
				if err != nil {
					return
				}
				if name == "meta" {
					_ = d.String()
					d.U32()
					d.U64()
				} else {
					d.U32s()
					d.U32s()
				}
				if err := d.Close(); err != nil {
					return
				}
			}
			t.Fatalf("prefix of %d bytes (full is %d) decoded without error", cut, len(raw))
		}()
	}
}

func TestHeaderValidation(t *testing.T) {
	raw := writeSample(t)

	if _, err := NewReader(strings.NewReader("not a snapshot at all"), "sample", 3); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("garbage input: err = %v, want bad magic", err)
	}
	if _, err := NewReader(bytes.NewReader(raw), "other", 3); err == nil || !strings.Contains(err.Error(), `format is "sample"`) {
		t.Errorf("format mismatch: err = %v", err)
	}
	// Version skew: a version-3 snapshot read by a codec capped at 2.
	if _, err := NewReader(bytes.NewReader(raw), "sample", 2); err == nil || !strings.Contains(err.Error(), "version 3 not supported") {
		t.Errorf("version skew: err = %v", err)
	}
	// Version 0 is reserved as invalid regardless of cap.
	var buf bytes.Buffer
	w := NewWriter(&buf, "sample", 0)
	w.Close()
	if _, err := NewReader(bytes.NewReader(buf.Bytes()), "sample", 3); err == nil || !strings.Contains(err.Error(), "version 0") {
		t.Errorf("version 0: err = %v", err)
	}
}

// TestTrailingBytes verifies Close flags a section the decoder did not
// fully consume — the schema-drift tripwire.
func TestTrailingBytes(t *testing.T) {
	raw := writeSample(t)
	r, err := NewReader(bytes.NewReader(raw), "sample", 3)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	_ = d.String() // leave the u32 and u64 unread
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "unread bytes") {
		t.Errorf("partial consume: Close = %v, want unread-bytes error", err)
	}
}

// TestCorruptLengthBounded flips a slice length field to a huge value and
// checks the decoder rejects it against the section bound instead of
// allocating gigabytes or reading into the next section.
func TestCorruptLengthBounded(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "sample", 1)
	w.Section("data", func(e *Encoder) { e.U32s([]uint32{7, 8, 9}) })
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The section payload starts right after name ("data": 2+4 bytes) and
	// the u64 length; its first 4 bytes are the slice length. Corrupt them.
	payloadOff := len(raw) - (4 + 3*4)
	raw[payloadOff] = 0xff
	raw[payloadOff+1] = 0xff
	raw[payloadOff+2] = 0xff
	raw[payloadOff+3] = 0xff

	r, err := NewReader(bytes.NewReader(raw), "sample", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U32s(); got != nil {
		t.Errorf("corrupt length returned %v", got)
	}
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("corrupt length: err = %v, want exceeds-remaining error", err)
	}
}

// TestStickyDecodeErrors checks that after the first failure every
// subsequent read is a cheap no-op returning zero values.
func TestStickyDecodeErrors(t *testing.T) {
	raw := writeSample(t)
	r, err := NewReader(bytes.NewReader(raw), "sample", 3)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	_ = d.String()
	d.U32()
	d.U64()
	d.U64() // past the end: fails
	first := d.Err()
	if first == nil {
		t.Fatal("read past section end succeeded")
	}
	if v := d.U32(); v != 0 {
		t.Errorf("post-error U32 = %d, want 0", v)
	}
	if got := d.U32s(); got != nil {
		t.Errorf("post-error U32s = %v, want nil", got)
	}
	if d.Err() != first {
		t.Errorf("Err changed after further reads: %v then %v", first, d.Err())
	}
}

// TestNextIteration drives the name-agnostic Next loop: every section in
// order, then a clean io.EOF — the primitive workload captures iterate
// with (a variable number of uniform sections, no fixed schema).
func TestNextIteration(t *testing.T) {
	raw := writeSample(t)
	r, err := NewReader(bytes.NewReader(raw), "sample", 3)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var names []string
	for {
		name, dec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		names = append(names, name)
		// Drain the section so the stream is positioned at the next header.
		switch name {
		case "meta":
			_ = dec.String()
			dec.U32()
			dec.U64()
		case "data":
			dec.U32s()
			dec.U32s()
		default:
			t.Fatalf("unexpected section %q", name)
		}
		if err := dec.Close(); err != nil {
			t.Fatalf("section %q: %v", name, err)
		}
	}
	if len(names) != 2 || names[0] != "meta" || names[1] != "data" {
		t.Fatalf("sections = %v, want [meta data]", names)
	}

	// A stream cut inside a section header is a truncation error from
	// Next, not a clean EOF.
	r2, err := NewReader(bytes.NewReader(raw[:len(raw)-1]), "sample", 3)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for {
		_, dec, err := r2.Next()
		if err == io.EOF {
			t.Fatal("truncated stream ended with clean EOF")
		}
		if err != nil {
			break // the expected truncation error
		}
		_ = dec.String()
		dec.U32()
		dec.U64()
		if dec.Close() != nil {
			break
		}
	}
}

// Package persist is the shared on-disk container: a versioned header
// followed by named, length-prefixed sections. Index and graph packages
// (pll, bfl, graph) define what goes inside each section; this package
// owns the container so every format gets the same hardening —
// magic/format validation, version-skew rejection, byte-exact section
// bounds, and allocation caps derived from the declared section length —
// for free. Malformed or truncated input always surfaces as an error,
// never a panic.
//
// Layout (all integers little-endian):
//
//	magic "RIX1" | format len16+bytes | version u16 |
//	per section: name len16+bytes | payload len u64 | payload
//
// The container has two uses. A snapshot (an index or a graph CSR) is
// written in the aligned, checksummed layout of aligned.go and read
// whole, by OpenMapped from a file or ReadMapped from a stream. A log
// (the write-ahead log, workload captures) is a run of uniform sections
// appended over time and read in order through Reader.Next.
//
// Snapshots are positional facts about a specific graph; pairing a
// snapshot file with the graph it was built from is the caller's
// responsibility, as with any external index file in a DBMS.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies the shared snapshot container ("Reach IndeX v1").
var Magic = [4]byte{'R', 'I', 'X', '1'}

// maxNameLen bounds format and section names; anything longer is
// corruption, not a plausible snapshot.
const maxNameLen = 1 << 10

// Writer emits one snapshot: header first, then sections in call order.
// Errors are sticky — the first failure is remembered and returned by
// Close, so call sites can write straight-line code without checking
// every put.
type Writer struct {
	w   *bufio.Writer
	buf bytes.Buffer // current section payload, emitted on section end
	n   int64
	crc uint32 // running CRC-32C of every byte written, for Checksum
	err error
}

// NewWriter starts a snapshot in the named format at the given version.
func NewWriter(w io.Writer, format string, version uint16) *Writer {
	pw := &Writer{w: bufio.NewWriter(w)}
	pw.raw(Magic[:])
	pw.rawName(format)
	pw.rawU16(version)
	return pw
}

// NewAppendWriter returns a Writer that emits no container header, for
// appending further sections to a log-structured file whose header is
// already on disk (the write-ahead log reopens its file this way after
// replay). The caller is responsible for having positioned w at the end
// of the intact prefix.
func NewAppendWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Section buffers the payload fill writes into enc, then emits it as one
// named, length-prefixed section. Sections must be read back in the same
// order they were written.
func (pw *Writer) Section(name string, fill func(e *Encoder)) {
	if pw.err != nil {
		return
	}
	pw.buf.Reset()
	fill(&Encoder{buf: &pw.buf})
	pw.rawName(name)
	pw.rawU64(uint64(pw.buf.Len()))
	pw.raw(pw.buf.Bytes())
}

// Flush writes buffered bytes through to the underlying writer without
// finalizing the stream — long-running appenders (workload capture)
// checkpoint with it. Returns the byte count so far and the first error.
func (pw *Writer) Flush() (int64, error) {
	if pw.err == nil {
		pw.err = pw.w.Flush()
	}
	return pw.n, pw.err
}

// Close flushes and returns the total byte count and the first error.
func (pw *Writer) Close() (int64, error) {
	return pw.Flush()
}

func (pw *Writer) raw(b []byte) {
	if pw.err != nil {
		return
	}
	pw.crc = crc32.Update(pw.crc, castagnoli, b)
	m, err := pw.w.Write(b)
	pw.n += int64(m)
	pw.err = err
}

func (pw *Writer) rawU32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	pw.raw(b[:])
}

func (pw *Writer) rawU16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	pw.raw(b[:])
}

func (pw *Writer) rawU64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	pw.raw(b[:])
}

func (pw *Writer) rawName(s string) {
	if len(s) > maxNameLen {
		if pw.err == nil {
			pw.err = fmt.Errorf("persist: name %q too long", s[:32]+"...")
		}
		return
	}
	pw.rawU16(uint16(len(s)))
	pw.raw([]byte(s))
}

// Encoder writes primitive values into the current section.
type Encoder struct {
	buf *bytes.Buffer
}

// U32 writes one uint32.
func (e *Encoder) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}

// U64 writes one uint64.
func (e *Encoder) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf.WriteString(s)
}

// U32s writes a length-prefixed []uint32.
func (e *Encoder) U32s(vs []uint32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U32(v)
	}
}

// Reader consumes a log-structured stream written by Writer — the
// write-ahead log and workload captures, whose sections are all read in
// order with Next. Index and graph snapshots are read whole with
// ReadMapped or OpenMapped instead.
type Reader struct {
	r *bufio.Reader
}

// NewReader checks the magic, the format name, and the version: a stream
// that is not a snapshot at all, a snapshot of a different format, or a
// snapshot from a newer codec revision (version 0 or > maxVersion) all
// fail here with a descriptive error.
func NewReader(r io.Reader, format string, maxVersion uint16) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("persist: read magic: %w", noEOF(err))
	}
	if magic != Magic {
		return nil, fmt.Errorf("persist: bad magic %q (not a snapshot)", magic[:])
	}
	got, err := readName(br)
	if err != nil {
		return nil, fmt.Errorf("persist: read format: %w", err)
	}
	if got != format {
		return nil, fmt.Errorf("persist: snapshot format is %q, want %q", got, format)
	}
	var vb [2]byte
	if _, err := io.ReadFull(br, vb[:]); err != nil {
		return nil, fmt.Errorf("persist: read version: %w", noEOF(err))
	}
	if v := binary.LittleEndian.Uint16(vb[:]); v == 0 || v > maxVersion {
		return nil, fmt.Errorf("persist: %s snapshot version %d not supported (max %d)", format, v, maxVersion)
	}
	return &Reader{r: br}, nil
}

// Next reads the next section header, whatever its name — the iteration
// primitive for formats holding a variable number of uniform sections
// (e.g. workload capture batches). A clean end of stream returns io.EOF;
// anything cut off mid-header is a truncation error.
func (pr *Reader) Next() (string, *Decoder, error) {
	if _, err := pr.r.Peek(1); err != nil {
		if err == io.EOF {
			return "", nil, io.EOF
		}
		return "", nil, fmt.Errorf("persist: read section header: %w", err)
	}
	name, err := readName(pr.r)
	if err != nil {
		return "", nil, fmt.Errorf("persist: read section header: %w", err)
	}
	var lb [8]byte
	if _, err := io.ReadFull(pr.r, lb[:]); err != nil {
		return "", nil, fmt.Errorf("persist: section %q length: %w", name, noEOF(err))
	}
	return name, &Decoder{
		r:    pr.r,
		name: name,
		rem:  binary.LittleEndian.Uint64(lb[:]),
	}, nil
}

func readName(br *bufio.Reader) (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		return "", noEOF(err)
	}
	l := binary.LittleEndian.Uint16(lb[:])
	if l > maxNameLen {
		return "", fmt.Errorf("implausible name length %d", l)
	}
	b := make([]byte, l)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", noEOF(err)
	}
	return string(b), nil
}

// Decoder reads primitive values out of one section. Errors are sticky:
// after the first failure every read returns the zero value, and Err
// reports what went wrong — call sites decode straight-line and check
// once. Every read is bounded by the section's declared length, and
// every slice allocation is capped by the bytes actually remaining, so a
// corrupt length field cannot trigger a huge allocation or read into the
// next section.
type Decoder struct {
	r    io.Reader
	name string
	rem  uint64
	err  error
}

// Err reports the first decode failure, nil if all reads succeeded.
func (d *Decoder) Err() error { return d.err }

// Close verifies the section was fully consumed (trailing bytes indicate
// a reader/writer schema mismatch) and returns the first error.
func (d *Decoder) Close() error {
	if d.err == nil && d.rem != 0 {
		d.err = fmt.Errorf("persist: section %q has %d unread bytes", d.name, d.rem)
	}
	return d.err
}

func (d *Decoder) read(b []byte) bool {
	if d.err != nil {
		return false
	}
	if uint64(len(b)) > d.rem {
		d.err = fmt.Errorf("persist: section %q truncated (want %d bytes, %d left)", d.name, len(b), d.rem)
		return false
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("persist: section %q: %w", d.name, noEOF(err))
		return false
	}
	d.rem -= uint64(len(b))
	return true
}

// U32 reads one uint32.
func (d *Decoder) U32() uint32 {
	var b [4]byte
	if !d.read(b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

// U64 reads one uint64.
func (d *Decoder) U64() uint64 {
	var b [8]byte
	if !d.read(b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	l := uint64(d.U32())
	if d.err != nil {
		return ""
	}
	if l > d.rem {
		d.err = fmt.Errorf("persist: section %q string length %d exceeds %d remaining bytes", d.name, l, d.rem)
		return ""
	}
	b := make([]byte, l)
	if !d.read(b) {
		return ""
	}
	return string(b)
}

// U32s reads a length-prefixed []uint32.
func (d *Decoder) U32s() []uint32 {
	b := d.slice(4)
	if b == nil {
		return nil
	}
	vs := make([]uint32, len(b)/4)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return vs
}

// slice reads a length-prefixed run of elemSize-byte elements as raw
// bytes, in one bulk read bounded by the section's remaining length.
func (d *Decoder) slice(elemSize uint64) []byte {
	l := uint64(d.U32())
	if d.err != nil {
		return nil
	}
	if l*elemSize > d.rem {
		d.err = fmt.Errorf("persist: section %q slice length %d exceeds %d remaining bytes", d.name, l, d.rem)
		return nil
	}
	b := make([]byte, l*elemSize)
	if !d.read(b) {
		return nil
	}
	return b
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// snapshot every EOF is a truncation, and the unexpected variant reads
// that way in error text.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

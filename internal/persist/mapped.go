package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Mapped is a whole snapshot in memory with its section table parsed and
// its checksum verified: page-mapped from a file by OpenMapped, or read
// from a stream into a 64-byte-aligned heap buffer by ReadMapped (also
// OpenMapped's fallback where mmap is unavailable). Aligned array
// sections come back as typed views straight into those bytes, so a
// mapped cold start touches only the pages the header and offset tables
// live on; label pages fault in lazily as queries reach them.
//
// Both constructors require the trailing "crc32" section and verify it
// over the whole snapshot before returning — a corrupt or truncated
// snapshot fails there with an error, never a panic or a silently wrong
// index.
//
// Views alias the bytes. Whoever holds them must keep the Mapped
// reachable (indexes built from a Mapped pin it); Close unmaps and is
// also registered as a finalizer backstop for a real mapping.
type Mapped struct {
	data    []byte
	mapped  bool // true when data is an actual mmap, not a heap copy
	closed  atomic.Bool
	format  string
	version uint16
	secs    map[string]mappedSection
}

type mappedSection struct{ off, len int }

// disableMmap forces the read-into-memory fallback; tests use it to
// exercise the no-mmap path on platforms that do have mmap.
var disableMmap atomic.Bool

// OpenMapped maps the snapshot at path and parses its section table.
// The format and version are available via Format/Version; dispatch on
// them before handing the Mapped to an index codec.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: open mapped: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("persist: open mapped: %w", err)
	}
	size := st.Size()
	if size <= 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("persist: open mapped: implausible size %d", size)
	}
	if !disableMmap.Load() {
		if data, err := mmapFile(f, int(size)); err == nil {
			m := &Mapped{data: data, mapped: true}
			if err := m.parse(); err != nil {
				m.Close()
				return nil, err
			}
			runtime.SetFinalizer(m, (*Mapped).Close)
			return m, nil
		}
	}
	// No mmap on this platform (or it failed): read the bytes instead.
	// Same layout and API, just no shared page cache.
	m, err := ReadMapped(f)
	if err != nil {
		return nil, err
	}
	if len(m.data) != int(size) {
		return nil, fmt.Errorf("persist: mapped: snapshot is %d bytes, file %d (bytes after the checksum section?)", len(m.data), size)
	}
	return m, nil
}

// ReadMapped reads one snapshot from r — through its checksum section and
// no further, so a snapshot embedded in a longer stream leaves r just
// past it — into a 64-byte-aligned heap buffer, then parses and verifies
// it exactly as OpenMapped does. Its views are zero-copy into that buffer.
func ReadMapped(r io.Reader) (*Mapped, error) {
	var b snapshotBuf
	if err := b.read(r); err != nil {
		return nil, fmt.Errorf("persist: read mapped: %w", err)
	}
	m := &Mapped{data: b.data}
	if err := m.parse(); err != nil {
		return nil, err
	}
	return m, nil
}

// heapAlign is the alignment of ReadMapped's buffer: a cache line, the
// largest alignment any snapshot section declares in this module.
const heapAlign = 64

// snapshotBuf accumulates a snapshot's bytes in a heapAlign-aligned
// buffer.
type snapshotBuf struct{ data []byte }

// read appends one snapshot from r: the header, then whole sections up to
// and including the checksum section. It stops early without an error at
// the end of the stream, or at a header that parse refuses anyway; parse
// then names what is wrong. Other read errors are returned.
func (b *snapshotBuf) read(r io.Reader) error {
	var err error
	next := func(n uint64) []byte {
		if err != nil {
			return nil
		}
		var p []byte
		p, err = b.fill(r, n)
		return p
	}
	name := func() string {
		p := next(2)
		if err != nil {
			return ""
		}
		if l := binary.LittleEndian.Uint16(p); l <= maxNameLen {
			return string(next(uint64(l)))
		}
		err = io.EOF // parse reports the implausible length
		return ""
	}
	if magic := next(4); err == nil && [4]byte(magic) != Magic {
		return nil
	}
	name()
	next(2) // version
	for err == nil {
		s := name()
		if l := next(8); err == nil {
			next(binary.LittleEndian.Uint64(l))
		}
		if err == nil && s == ChecksumSection {
			return nil
		}
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// fill appends exactly n bytes of r and returns them. The buffer grows as
// the bytes arrive, so a corrupt length claims no more memory than the
// stream actually holds.
func (b *snapshotBuf) fill(r io.Reader, n uint64) ([]byte, error) {
	start := len(b.data)
	for n > 0 {
		k := int(min(n, 1<<20))
		if cap(b.data)-len(b.data) < k {
			b.data = append(alignedBytes(max(2*cap(b.data), len(b.data)+k, 4096)), b.data...)
		}
		got, err := io.ReadFull(r, b.data[len(b.data):len(b.data)+k])
		b.data = b.data[:len(b.data)+got]
		if err != nil {
			return nil, err
		}
		n -= uint64(k)
	}
	return b.data[start:], nil
}

// alignedBytes returns an empty slice of capacity n whose first byte is
// heapAlign-aligned.
func alignedBytes(n int) []byte {
	b := make([]byte, n+heapAlign-1)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(b))) & (heapAlign - 1))
	return b[off : off : off+n]
}

// parse validates the header, walks the section table, and verifies the
// trailing checksum. Every access is bounds-checked; corrupt headers
// surface as errors.
func (m *Mapped) parse() error {
	d := m.data
	m.secs = make(map[string]mappedSection)
	pos := 0
	take := func(n int) ([]byte, bool) {
		if n < 0 || len(d)-pos < n {
			return nil, false
		}
		b := d[pos : pos+n]
		pos += n
		return b, true
	}
	magic, ok := take(4)
	if !ok || [4]byte(magic) != Magic {
		return fmt.Errorf("persist: mapped: bad magic (not a snapshot)")
	}
	name := func() (string, bool) {
		lb, ok := take(2)
		if !ok {
			return "", false
		}
		l := int(binary.LittleEndian.Uint16(lb))
		if l > maxNameLen {
			return "", false
		}
		nb, ok := take(l)
		if !ok {
			return "", false
		}
		return string(nb), true
	}
	format, ok := name()
	if !ok {
		return fmt.Errorf("persist: mapped: truncated format name")
	}
	m.format = format
	vb, ok := take(2)
	if !ok {
		return fmt.Errorf("persist: mapped: truncated version")
	}
	m.version = binary.LittleEndian.Uint16(vb)
	if m.version == 0 {
		return fmt.Errorf("persist: mapped: %s snapshot version 0 invalid", format)
	}
	checksummed := false
	for pos < len(d) {
		hdrOff := pos
		sname, ok := name()
		if !ok {
			return fmt.Errorf("persist: mapped: truncated section name at %d", hdrOff)
		}
		lb, ok := take(8)
		if !ok {
			return fmt.Errorf("persist: mapped: truncated section %q length", sname)
		}
		l := binary.LittleEndian.Uint64(lb)
		if l > uint64(len(d)-pos) {
			return fmt.Errorf("persist: mapped: section %q claims %d bytes, %d left", sname, l, len(d)-pos)
		}
		payload, _ := take(int(l))
		if sname == ChecksumSection {
			if l != 4 {
				return fmt.Errorf("persist: mapped: checksum section has %d bytes, want 4", l)
			}
			want := binary.LittleEndian.Uint32(payload)
			got := crc32.Checksum(d[:hdrOff], castagnoli)
			if got != want {
				return fmt.Errorf("persist: mapped: checksum mismatch (file %08x, computed %08x)", want, got)
			}
			if pos != len(d) {
				return fmt.Errorf("persist: mapped: %d bytes after checksum section", len(d)-pos)
			}
			checksummed = true
			break
		}
		if _, dup := m.secs[sname]; dup {
			return fmt.Errorf("persist: mapped: duplicate section %q", sname)
		}
		m.secs[sname] = mappedSection{off: pos - int(l), len: int(l)}
	}
	if !checksummed {
		return fmt.Errorf("persist: mapped: %s snapshot version %d has no checksum section, so it is not the layout this build reads (or it is truncated); delete the snapshot file and rebuild", m.format, m.version)
	}
	return nil
}

// Format reports the snapshot's format name.
func (m *Mapped) Format() string { return m.format }

// Version reports the snapshot's header version.
func (m *Mapped) Version() uint16 { return m.version }

// Mmapped reports whether the bytes are a real memory mapping (false on
// the read-into-memory fallback).
func (m *Mapped) Mmapped() bool { return m.mapped }

// Close releases the mapping. Idempotent; a finalizer calls it as a
// backstop. After Close every view handed out is invalid — callers pin
// the Mapped for as long as they hold views.
func (m *Mapped) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if m.mapped && m.data != nil {
		data := m.data
		m.data = nil
		return munmapFile(data)
	}
	m.data = nil
	return nil
}

func (m *Mapped) section(name string) (mappedSection, error) {
	s, ok := m.secs[name]
	if !ok {
		return mappedSection{}, fmt.Errorf("persist: mapped: no section %q", name)
	}
	return s, nil
}

// Section returns a streaming Decoder over the named section's payload,
// for small metadata sections written with Writer.Section.
func (m *Mapped) Section(name string) (*Decoder, error) {
	s, err := m.section(name)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		r:    bytes.NewReader(m.data[s.off : s.off+s.len]),
		name: name,
		rem:  uint64(s.len),
	}, nil
}

// Bytes returns the raw array of the named aligned section as a view
// into the snapshot's bytes.
func (m *Mapped) Bytes(name string) ([]byte, error) {
	s, err := m.section(name)
	if err != nil {
		return nil, err
	}
	if s.len < 8 {
		return nil, fmt.Errorf("persist: mapped: section %q too short for aligned header", name)
	}
	p := m.data[s.off : s.off+s.len]
	align := binary.LittleEndian.Uint32(p)
	pad := binary.LittleEndian.Uint32(p[4:])
	if align == 0 || align > maxAlign || uint64(pad) >= uint64(align) || int(8+pad) > s.len {
		return nil, fmt.Errorf("persist: mapped: section %q bad alignment %d/pad %d", name, align, pad)
	}
	return p[8+pad:], nil
}

// U16s returns the named aligned section as a []uint16 view.
func (m *Mapped) U16s(name string) ([]uint16, error) { return view[uint16](m, name) }

// U32s returns the named aligned section as a []uint32 view.
func (m *Mapped) U32s(name string) ([]uint32, error) { return view[uint32](m, name) }

// view returns the named aligned section as a []T. It is zero-copy when
// the host is little-endian and the bytes are aligned in memory — always
// so for OpenMapped and ReadMapped, whose bases are page- and
// line-aligned while the writer aligned the file offset; otherwise it
// converts into a fresh slice.
func view[T uint16 | uint32](m *Mapped, name string) ([]T, error) {
	b, err := m.Bytes(name)
	if err != nil {
		return nil, err
	}
	size := int(unsafe.Sizeof(T(0)))
	if len(b)%size != 0 {
		return nil, fmt.Errorf("persist: mapped: section %q length %d not a multiple of %d", name, len(b), size)
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/size), nil
	}
	vs := make([]T, len(b)/size)
	for i := range vs {
		if size == 2 {
			vs[i] = T(binary.LittleEndian.Uint16(b[2*i:]))
		} else {
			vs[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return vs, nil
}

// Sections store arrays little-endian; zero-copy reinterpretation is
// only valid when the host agrees. Big-endian hosts (s390x, some mips)
// take the convert-copy path instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

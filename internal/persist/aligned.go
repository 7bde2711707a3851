package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Aligned sections extend the RIX1 container with a layout that a mapped
// reader can hand back as zero-copy typed views: the payload is a small
// header (u32 alignment | u32 pad) followed by pad zero bytes and then
// the raw little-endian array, with the pad chosen so the array starts at
// a file offset that is a multiple of the declared alignment. Because an
// mmap base address is page-aligned, file-offset alignment is memory
// alignment, and the mapped reader can reinterpret the bytes in place.
// The streaming Decoder reads the same sections by skipping the pad, so
// one format serves both load paths.
//
// A snapshot intended for mapping ends with a "crc32" section holding a
// CRC-32C (Castagnoli — hardware-assisted on amd64/arm64) of every byte
// before that section's header. The mapped reader verifies it before
// trusting any bytes, since it skips the per-field validation the
// streaming decode performs.

// ChecksumSection names the trailing integrity section written by
// Writer.Checksum.
const ChecksumSection = "crc32"

// maxAlign bounds declared section alignment at one page; larger values
// in a file are corruption, not a plausible layout.
const maxAlign = 1 << 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum emits the trailing "crc32" section: a CRC-32C of every byte
// written so far (header and all prior sections). Call it last; the
// mapped reader requires it, the streaming reader ignores it.
func (pw *Writer) Checksum() {
	if pw.err != nil {
		return
	}
	sum := pw.crc
	pw.rawName(ChecksumSection)
	pw.rawU64(4)
	pw.rawU32(sum)
}

// alignedHeader writes the section header and alignment preamble for a
// raw array of size bytes, returning false if the writer already failed.
// It relies on pw.n being the absolute file offset, which holds whenever
// the Writer started at the beginning of the file.
func (pw *Writer) alignedHeader(name string, align uint32, size int) bool {
	if pw.err != nil {
		return false
	}
	pw.rawName(name)
	dataOff := pw.n + 8 + 8 // past the u64 length prefix and align header
	var pad uint32
	if align > 1 {
		pad = uint32((int64(align) - dataOff%int64(align)) % int64(align))
	}
	pw.rawU64(uint64(8+int(pad)) + uint64(size))
	pw.rawU32(align)
	pw.rawU32(pad)
	if pad > 0 {
		var zeros [maxAlign]byte
		pw.raw(zeros[:pad])
	}
	return pw.err == nil
}

// AlignedU16s writes vs as one 2-byte-aligned raw little-endian array
// section (edge-label arrays are uint16).
func (pw *Writer) AlignedU16s(name string, vs []uint16) {
	if !pw.alignedHeader(name, 2, len(vs)*2) {
		return
	}
	var buf [4096]byte
	for len(vs) > 0 {
		k := min(len(vs), len(buf)/2)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint16(buf[2*i:], vs[i])
		}
		pw.raw(buf[:2*k])
		vs = vs[k:]
	}
}

// AlignedU32s writes vs as one 4-byte-aligned raw little-endian array
// section.
func (pw *Writer) AlignedU32s(name string, vs []uint32) {
	if !pw.alignedHeader(name, 4, len(vs)*4) {
		return
	}
	var buf [4096]byte
	for len(vs) > 0 {
		k := min(len(vs), len(buf)/4)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], vs[i])
		}
		pw.raw(buf[:4*k])
		vs = vs[k:]
	}
}

// AlignedU64s writes vs as one 8-byte-aligned raw little-endian array
// section.
func (pw *Writer) AlignedU64s(name string, vs []uint64) {
	if !pw.alignedHeader(name, 8, len(vs)*8) {
		return
	}
	var buf [4096]byte
	for len(vs) > 0 {
		k := min(len(vs), len(buf)/8)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], vs[i])
		}
		pw.raw(buf[:8*k])
		vs = vs[k:]
	}
}

// AlignedBytes writes b as one byte-array section in the aligned framing,
// starting at a multiple of align: 1 for varint label streams, a record's
// size for fixed-size records, so a mapped record never straddles a line.
func (pw *Writer) AlignedBytes(name string, align uint32, b []byte) {
	if !pw.alignedHeader(name, align, len(b)) {
		return
	}
	pw.raw(b)
}

// alignedHeader consumes the align/pad preamble of an aligned section,
// leaving the decoder positioned at the raw array.
func (d *Decoder) alignedHeader() bool {
	align := d.U32()
	pad := d.U32()
	if d.err != nil {
		return false
	}
	if align == 0 || align > maxAlign || uint64(pad) >= uint64(align) {
		d.err = fmt.Errorf("persist: section %q bad alignment %d/pad %d", d.name, align, pad)
		return false
	}
	if pad > 0 {
		var zeros [maxAlign]byte
		if !d.read(zeros[:pad]) {
			return false
		}
	}
	return true
}

// AlignedU16s reads an aligned u16-array section.
func (d *Decoder) AlignedU16s() []uint16 {
	b := d.alignedRest(2)
	if b == nil {
		return nil
	}
	vs := make([]uint16, len(b)/2)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return vs
}

// AlignedU32s reads an aligned u32-array section: the alignment preamble
// followed by every remaining payload byte as little-endian uint32s.
func (d *Decoder) AlignedU32s() []uint32 {
	b := d.alignedRest(4)
	if b == nil {
		return nil
	}
	vs := make([]uint32, len(b)/4)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return vs
}

// AlignedU64s reads an aligned u64-array section.
func (d *Decoder) AlignedU64s() []uint64 {
	b := d.alignedRest(8)
	if b == nil {
		return nil
	}
	vs := make([]uint64, len(b)/8)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return vs
}

// AlignedBytes reads an aligned byte-array section.
func (d *Decoder) AlignedBytes() []byte {
	return d.alignedRest(1)
}

func (d *Decoder) alignedRest(elem uint64) []byte {
	if !d.alignedHeader() {
		return nil
	}
	if d.rem%elem != 0 {
		d.err = fmt.Errorf("persist: section %q payload %d bytes not a multiple of %d", d.name, d.rem, elem)
		return nil
	}
	b := make([]byte, d.rem)
	if !d.read(b) {
		return nil
	}
	return b
}

// NewReaderAny opens a snapshot without committing to a format: it
// validates the magic and returns the reader plus the format name found
// in the header, so dispatch code can sniff which index codec to hand the
// stream to. Version is validated only for nonzero-ness; the per-format
// reader checks the ceiling via Version.
func NewReaderAny(r io.Reader) (*Reader, string, error) {
	pr, format, err := readHeader(r)
	if err != nil {
		return nil, "", err
	}
	if pr.version == 0 {
		return nil, "", fmt.Errorf("persist: %s snapshot version 0 invalid", format)
	}
	return pr, format, nil
}

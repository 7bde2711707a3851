package persist

import (
	"encoding/binary"
	"hash/crc32"
	"unsafe"
)

// Aligned sections extend the RIX1 container with a layout that a reader
// can hand back as zero-copy typed views: the payload is a small header
// (u32 alignment | u32 pad) followed by pad zero bytes and then the raw
// little-endian array, with the pad chosen so the array starts at a file
// offset that is a multiple of the declared alignment. An mmap base
// address is page-aligned and ReadMapped's heap buffer is 64-byte
// aligned, so file-offset alignment is memory alignment, and Mapped can
// reinterpret the bytes in place.
//
// A snapshot ends with a "crc32" section holding a CRC-32C (Castagnoli —
// hardware-assisted on amd64/arm64) of every byte before that section's
// header. Mapped verifies it before trusting any bytes.

// ChecksumSection names the trailing integrity section written by
// Writer.Checksum.
const ChecksumSection = "crc32"

// maxAlign bounds declared section alignment at one page; larger values
// in a file are corruption, not a plausible layout.
const maxAlign = 1 << 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum emits the trailing "crc32" section: a CRC-32C of every byte
// written so far (header and all prior sections). Call it last; Mapped
// requires it.
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

// U16s writes vs as one 2-byte-aligned little-endian array section, read
// back by Mapped.U16s.
func (pw *Writer) U16s(name string, vs []uint16) { writeArray(pw, name, vs) }

// U32s writes vs as one 4-byte-aligned little-endian array section, read
// back by Mapped.U32s.
func (pw *Writer) U32s(name string, vs []uint32) { writeArray(pw, name, vs) }

func writeArray[T uint16 | uint32](pw *Writer, name string, vs []T) {
	size := int(unsafe.Sizeof(T(0)))
	if !pw.alignedHeader(name, uint32(size), len(vs)*size) {
		return
	}
	var buf [4096]byte
	for len(vs) > 0 {
		k := min(len(vs), len(buf)/size)
		b := buf[:0]
		for _, v := range vs[:k] {
			if size == 2 {
				b = binary.LittleEndian.AppendUint16(b, uint16(v))
			} else {
				b = binary.LittleEndian.AppendUint32(b, uint32(v))
			}
		}
		pw.raw(b)
		vs = vs[k:]
	}
}

// AlignedBytes writes b as one byte-array section in the aligned framing,
// starting at a multiple of align: a record's size for fixed-size
// records, so a mapped record never straddles a line. Mapped.Bytes reads
// it back.
func (pw *Writer) AlignedBytes(name string, align uint32, b []byte) {
	if !pw.alignedHeader(name, align, len(b)) {
		return
	}
	pw.raw(b)
}

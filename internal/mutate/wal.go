package mutate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/persist"
)

// WAL container identity. Each group commit is one "batch" section:
//
//	crc u32 | seq u64 | count u32 | count × (kind u32, from u32, to u32, label u32)
//
// crc is CRC-32C over the seq/count/op bytes, so a flipped bit anywhere
// in a batch — including its sequence number — fails verification. seq
// is the 1-based batch number; replay additionally requires the
// sequence to be contiguous, which rejects spliced or reordered tails
// that happen to checksum.
const (
	WALFormat    = "reach-wal"
	walVersion   = 1
	batchSection = "batch"
	opBytes      = 16
)

// walHeaderLen is the on-disk size of the container header: magic,
// length-prefixed format name, version.
var walHeaderLen = int64(4 + 2 + len(WALFormat) + 2)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncMode selects the WAL durability policy.
type FsyncMode int

const (
	// FsyncAlways fsyncs once per group commit, before any caller is
	// acknowledged: an acknowledged write survives an immediate power
	// cut. Group commit amortizes the sync across the whole batch.
	FsyncAlways FsyncMode = iota
	// FsyncNever leaves flushing to the OS page cache: acknowledged
	// writes survive a process crash but not a power cut. Log.Sync (the
	// DB.Flush barrier) still forces an fsync on demand.
	FsyncNever
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// Batch is one recovered group commit, in WAL order.
type Batch struct {
	Seq uint64
	Ops []Op
}

// Recovery reports what Replay found in a WAL image.
type Recovery struct {
	// Batches are the fully intact batches, in sequence order.
	Batches []Batch
	// Intact is the byte length of the longest intact prefix: the
	// container header plus every verified batch. Bytes past Intact are
	// a torn or corrupt tail.
	Intact int64
	// TailErr is non-nil when bytes beyond Intact were rejected; it
	// describes the first defect (truncated section, CRC mismatch,
	// sequence gap). A nil TailErr means the image was consumed exactly.
	TailErr error
}

// Ops returns the total op count across recovered batches.
func (r Recovery) Ops() int {
	n := 0
	for _, b := range r.Batches {
		n += len(b.Ops)
	}
	return n
}

// Replay scans data as a WAL image and recovers the longest intact
// prefix. Torn tails — a crash mid-append — come back inside Recovery
// with a non-nil TailErr and are safe to truncate. A non-nil error means
// data is not a (possibly torn) WAL of this format at all — wrong magic,
// wrong format name, unsupported version — and the caller must refuse to
// reuse the file rather than clobber something that was never a WAL.
// Replay never panics, whatever the input.
func Replay(data []byte) (Recovery, error) {
	var rec Recovery
	if len(data) == 0 {
		return rec, nil
	}
	pr, err := persist.NewReader(bytes.NewReader(data), WALFormat, walVersion)
	if err != nil {
		// A header cut off mid-write is the torn tail of a log created
		// and killed before its first sync; in-place header corruption
		// or a different file type is not ours to truncate.
		if errors.Is(err, io.ErrUnexpectedEOF) && prefixOfMagic(data) {
			rec.TailErr = err
			return rec, nil
		}
		return rec, err
	}
	rec.Intact = walHeaderLen
	for {
		name, dec, err := pr.Next()
		if err == io.EOF {
			return rec, nil
		}
		if err != nil {
			rec.TailErr = err
			return rec, nil
		}
		if name != batchSection {
			rec.TailErr = fmt.Errorf("mutate: wal section %q, want %q", name, batchSection)
			return rec, nil
		}
		crc := dec.U32()
		seq := dec.U64()
		count := dec.U32()
		// Grow the op slice as bytes are actually consumed: a corrupt
		// count cannot trigger a huge up-front allocation, the decoder's
		// section bound fails the read first.
		ops := make([]Op, 0, min(int(count), 4096))
		for i := uint32(0); i < count && dec.Err() == nil; i++ {
			kind := dec.U32()
			if kind > 1 {
				// The op encoding is canonical (kind is 0 or 1), which
				// keeps the CRC — computed over re-encoded ops — exactly
				// the bytes on disk: a flip in any op byte either fails
				// here or fails the checksum.
				rec.TailErr = fmt.Errorf("mutate: wal batch %d op %d: invalid kind %d", seq, i, kind)
				return rec, nil
			}
			ops = append(ops, Op{
				Remove: kind == 1,
				From:   dec.U32(),
				To:     dec.U32(),
				Label:  dec.U32(),
			})
		}
		if err := dec.Close(); err != nil {
			rec.TailErr = err
			return rec, nil
		}
		if got := crcBatch(seq, ops); got != crc {
			rec.TailErr = fmt.Errorf("mutate: wal batch %d crc mismatch (stored %08x, computed %08x)", seq, crc, got)
			return rec, nil
		}
		if want := uint64(len(rec.Batches)) + 1; seq != want {
			rec.TailErr = fmt.Errorf("mutate: wal batch sequence %d, want %d", seq, want)
			return rec, nil
		}
		rec.Batches = append(rec.Batches, Batch{Seq: seq, Ops: ops})
		rec.Intact += batchSectionLen(len(ops))
	}
}

// batchSectionLen is the on-disk size of one batch section: name prefix,
// payload length, payload.
func batchSectionLen(ops int) int64 {
	return int64(2 + len(batchSection) + 8 + 4 + 8 + 4 + opBytes*ops)
}

// prefixOfMagic reports whether data could be the torn beginning of a
// WAL (a strict prefix of the container magic counts; anything that
// diverges from the magic is some other file).
func prefixOfMagic(data []byte) bool {
	n := min(len(data), len(persist.Magic))
	return bytes.Equal(data[:n], persist.Magic[:n])
}

// crcBatch checksums one batch: seq, count, then every op, all
// little-endian — the same bytes the section carries after the crc word.
func crcBatch(seq uint64, ops []Op) uint32 {
	var b [opBytes]byte
	binary.LittleEndian.PutUint64(b[:8], seq)
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(ops)))
	crc := crc32.Update(0, castagnoli, b[:12])
	for _, op := range ops {
		var kind uint32
		if op.Remove {
			kind = 1
		}
		binary.LittleEndian.PutUint32(b[0:4], kind)
		binary.LittleEndian.PutUint32(b[4:8], op.From)
		binary.LittleEndian.PutUint32(b[8:12], op.To)
		binary.LittleEndian.PutUint32(b[12:16], op.Label)
		crc = crc32.Update(crc, castagnoli, b[:])
	}
	return crc
}

// Log is an open write-ahead log positioned for appending. Appends are
// serialized internally; one Log is shared by the batcher's flusher and
// the Flush barrier.
type Log struct {
	mu    sync.Mutex
	f     *os.File
	pw    *persist.Writer
	fsync FsyncMode
	size  int64 // committed on-disk length (intact prefix)
	alloc int64 // file length when zeros were written ahead of the tail
	base  int64 // size minus bytes written through the current pw
	seq   uint64
	// broken is set when a failed append could not be rolled back: the
	// on-disk log no longer provably equals the acknowledged history, so
	// every further append refuses (reads and recovery remain valid —
	// replay re-derives the intact prefix).
	broken error
}

// Open opens (creating if absent) the WAL at path, replays it, truncates
// any torn tail, and returns the log positioned for appending plus what
// was recovered. A file that is not a WAL at all is a hard error — Open
// never overwrites foreign bytes.
func Open(path string, fsync FsyncMode) (*Log, Recovery, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, Recovery{}, err
	}
	rec, fatal := Replay(data)
	if fatal != nil {
		return nil, Recovery{}, fmt.Errorf("mutate: wal %s: %w", path, fatal)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	l := &Log{f: f, fsync: fsync}
	if len(rec.Batches) > 0 {
		l.seq = rec.Batches[len(rec.Batches)-1].Seq
	}
	if rec.Intact < walHeaderLen {
		// Fresh file, or one torn before its header finished: (re)write
		// the header so the next replay sees a well-formed container.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		l.pw = persist.NewWriter(f, WALFormat, walVersion)
		if _, err := l.pw.Flush(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		l.size = walHeaderLen
		l.base = 0 // pw has already counted the header bytes
	} else {
		if rec.TailErr != nil {
			if err := f.Truncate(rec.Intact); err != nil {
				f.Close()
				return nil, Recovery{}, err
			}
		}
		if _, err := f.Seek(rec.Intact, io.SeekStart); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		l.pw = persist.NewAppendWriter(f)
		l.size = rec.Intact
		l.base = rec.Intact
	}
	return l, rec, nil
}

// walAhead is how far past a batch the file is extended when the batch
// would pass its end.
const walAhead = 8 << 20

// reserve writes zeros ahead of the tail when the next batch would pass the
// end of the file, so that appends overwrite blocks that exist. Appending at
// the end of the file, every commit that starts a block waits inside fsync
// for the filesystem to allocate it and mark it written, which on a
// saturated box took seconds now and then (DESIGN.md, "Mutation &
// durability"). Best effort: what it fails to write, the append writes
// itself. The format knows nothing of it: rollback and Close cut the zeros
// off, and a process that dies leaves them as a torn tail for the next Open
// to cut.
func (l *Log) reserve(end int64) {
	l.alloc = max(l.alloc, l.size)
	if end > l.alloc {
		n, _ := l.f.WriteAt(make([]byte, end+walAhead-l.alloc), l.alloc)
		l.alloc += int64(n)
	}
}

// Append logs one batch and returns the bytes appended and whether it
// fsynced: it does when the policy is FsyncAlways or force is set (a
// Flush barrier rode in the batch). The batch is either fully on disk
// (per the policy and force) when Append returns nil, or — on any
// failure, the fsync's included — rolled back so the file again ends at
// the last committed batch; a rollback that itself fails marks the log
// broken and every later Append returns that error.
func (l *Log) Append(ops []Op, force bool) (n int64, synced bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, false, l.broken
	}
	if err := faultinject.HitErr(SiteWALAppend); err != nil {
		return 0, false, l.rollback(err)
	}
	l.reserve(l.size + batchSectionLen(len(ops)))
	seq := l.seq + 1
	l.pw.Section(batchSection, func(e *persist.Encoder) {
		e.U32(crcBatch(seq, ops))
		e.U64(seq)
		e.U32(uint32(len(ops)))
		for _, op := range ops {
			var kind uint32
			if op.Remove {
				kind = 1
			}
			e.U32(kind)
			e.U32(op.From)
			e.U32(op.To)
			e.U32(op.Label)
		}
	})
	written, err := l.pw.Flush()
	if err == nil {
		err = faultinject.HitErr(SiteWALFsync)
	}
	synced = l.fsync == FsyncAlways || force
	if err == nil && synced {
		err = l.f.Sync()
	}
	if err != nil {
		return 0, false, l.rollback(err)
	}
	n = l.base + written - l.size
	l.size = l.base + written
	l.seq = seq
	return n, synced, nil
}

// rollback restores the on-disk file to the last committed length after
// a failed append, recreating the section writer (whose sticky error
// state is now unusable). Returns cause, or the broken-log error when
// the restore itself failed.
func (l *Log) rollback(cause error) error {
	l.alloc = l.size
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = fmt.Errorf("mutate: wal unrecoverable after failed append (%v; truncate: %v)", cause, err)
		return l.broken
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.broken = fmt.Errorf("mutate: wal unrecoverable after failed append (%v; seek: %v)", cause, err)
		return l.broken
	}
	l.pw = persist.NewAppendWriter(l.f)
	l.base = l.size
	return cause
}

// Sync forces an fsync regardless of the policy — the durability barrier
// behind DB.Flush.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if err := faultinject.HitErr(SiteWALFsync); err != nil {
		return err
	}
	return l.f.Sync()
}

// Seq returns the sequence number of the last committed batch.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size returns the committed on-disk length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close cuts the zeros ahead of the tail, syncs and closes the file. The
// log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken == nil {
		l.broken = ErrClosed
		err := l.f.Truncate(l.size)
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

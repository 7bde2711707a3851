package mutate

import (
	"bytes"
	"os"
	"testing"
)

// FuzzWALReplay hammers the recovery path with arbitrary bytes. The
// invariants are the ones Open relies on to never lose an acknowledged
// write and never invent one:
//
//   - Replay never panics, whatever the input;
//   - Intact never exceeds the input length;
//   - a nil TailErr (with no fatal error) means the image was consumed
//     exactly: Intact == len(data);
//   - recovery is idempotent: replaying the reported intact prefix
//     yields the same batches, cleanly (this is precisely what a
//     post-truncation restart does);
//   - recovered sequence numbers are contiguous from 1.
func FuzzWALReplay(f *testing.F) {
	// Seed with an intact image plus systematic mutilations of it, so
	// coverage starts from the interesting region of the input space.
	img := fuzzSeedImage(f)
	f.Add([]byte{})
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:walHeaderLen])
	f.Add([]byte("RIX"))
	f.Add([]byte("not a wal at all"))
	corrupt := append([]byte(nil), img...)
	corrupt[len(corrupt)-3] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Replay(data)
		if err != nil {
			if rec.Intact != 0 || len(rec.Batches) != 0 {
				t.Fatalf("fatal error %v alongside recovered state %+v", err, rec)
			}
			return
		}
		if rec.Intact > int64(len(data)) {
			t.Fatalf("Intact %d > input %d", rec.Intact, len(data))
		}
		if rec.TailErr == nil && rec.Intact != int64(len(data)) {
			t.Fatalf("clean replay consumed %d of %d bytes", rec.Intact, len(data))
		}
		for i, b := range rec.Batches {
			if b.Seq != uint64(i+1) {
				t.Fatalf("batch %d has seq %d", i, b.Seq)
			}
		}
		// Replaying the intact prefix must be clean and identical.
		rec2, err := Replay(data[:rec.Intact])
		if err != nil || rec2.TailErr != nil {
			t.Fatalf("replay of intact prefix failed: %v / %v", err, rec2.TailErr)
		}
		if rec2.Intact != rec.Intact || len(rec2.Batches) != len(rec.Batches) {
			t.Fatalf("intact prefix replay diverged: %d/%d batches, %d/%d bytes",
				len(rec2.Batches), len(rec.Batches), rec2.Intact, rec.Intact)
		}
		for i := range rec.Batches {
			if rec2.Batches[i].Seq != rec.Batches[i].Seq || !sameOps(rec2.Batches[i].Ops, rec.Batches[i].Ops) {
				t.Fatalf("batch %d diverged across prefix replay", i)
			}
		}
	})
}

// fuzzSeedImage builds a small intact WAL in memory via the real writer.
func fuzzSeedImage(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	l, _, err := Open(dir+"/seed.wal", FsyncNever)
	if err != nil {
		f.Fatal(err)
	}
	for _, ops := range testBatches {
		if _, _, err := l.Append(ops, false); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/seed.wal")
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("RIX1")) {
		f.Fatalf("seed image lacks magic: %q", data[:8])
	}
	return data
}

// FuzzOverlayApply reads data as a program over four vertices — ops
// gathered into batches, commits, and rebuilds that open and close around
// further commits — and runs it through the overlay model: after every
// commit and rebase the sorted-run overlay must equal the map-based oracle
// and, laid over its base, the live edge set.
//
//	0..rfftt  queue an op on edge ff→tt: a remove if r is set, else an add
//	10......  commit the queued batch
//	11......  commit, then open a rebuild or close the open one
func FuzzOverlayApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x06, 0x16, 0x06, 0x80})                   // add 1→2, remove it, re-add, in one batch
	f.Add([]byte{0x11, 0xc0, 0x01, 0x80, 0xc0})             // remove base 0→1, fold, re-add mid-rebuild
	f.Add([]byte{0x0a, 0x80, 0x1a, 0x0a, 0xc0, 0x1a, 0xc0}) // self-loop 2→2 of the base
	f.Fuzz(func(t *testing.T, data []byte) {
		base := edgeSet{}
		for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 2}, {3, 0}} {
			base[EdgeKey(e[0], e[1])] = struct{}{}
		}
		m := newOverlayModel(t, 4, base)
		var batch []Op
		for _, b := range data {
			if b < 0x80 {
				batch = append(batch, Op{Remove: b>>4&1 == 1, From: uint32(b >> 2 & 3), To: uint32(b & 3)})
				continue
			}
			m.commit(batch)
			batch = batch[:0]
			switch {
			case b < 0xc0:
			case m.g1 == nil:
				m.beginRebuild()
			default:
				m.endRebuild()
			}
		}
		m.commit(batch)
		if m.g1 != nil {
			m.endRebuild()
		}
	})
}

package mutate

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// testBatches is the fixture the recovery-matrix tests append: three
// batches of different sizes so every boundary class (header, small
// batch, larger batch, end of file) appears in the image.
var testBatches = [][]Op{
	{{From: 1, To: 2}},
	{{Remove: true, From: 3, To: 4}, {From: 5, To: 6}},
	{{From: 7, To: 8}, {From: 9, To: 10}, {Remove: true, From: 11, To: 12}},
}

// writeTestWAL creates a WAL containing testBatches and returns its path
// and raw bytes.
func writeTestWAL(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, rec, err := Open(path, FsyncAlways)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Batches) != 0 || rec.Intact != 0 || rec.TailErr != nil {
		t.Fatalf("fresh recovery = %+v, want empty", rec)
	}
	for _, ops := range testBatches {
		if _, _, err := l.Append(ops, false); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return path, data
}

// boundaries returns the byte offsets at which the fixture image is
// intact: after the header and after each batch.
func boundaries() []int64 {
	bs := []int64{walHeaderLen}
	off := walHeaderLen
	for _, ops := range testBatches {
		off += batchSectionLen(len(ops))
		bs = append(bs, off)
	}
	return bs
}

func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPrefix asserts that rec's batches are exactly the first n fixture
// batches, byte-for-byte.
func checkPrefix(t *testing.T, rec Recovery, n int) {
	t.Helper()
	if len(rec.Batches) != n {
		t.Fatalf("recovered %d batches, want %d", len(rec.Batches), n)
	}
	for i, b := range rec.Batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d seq = %d, want %d", i, b.Seq, i+1)
		}
		if !sameOps(b.Ops, testBatches[i]) {
			t.Fatalf("batch %d ops = %v, want %v", i, b.Ops, testBatches[i])
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	_, data := writeTestWAL(t)
	want := boundaries()
	if int64(len(data)) != want[len(want)-1] {
		t.Fatalf("file is %d bytes, want %d (batchSectionLen drifted from the codec)",
			len(data), want[len(want)-1])
	}
	rec, err := Replay(data)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rec.TailErr != nil {
		t.Fatalf("TailErr = %v on an intact image", rec.TailErr)
	}
	if rec.Intact != int64(len(data)) {
		t.Fatalf("Intact = %d, want %d", rec.Intact, len(data))
	}
	checkPrefix(t, rec, len(testBatches))
	if rec.Ops() != 6 {
		t.Fatalf("Ops() = %d, want 6", rec.Ops())
	}
}

// TestWALTruncationMatrix truncates the image at every byte length and
// checks that Replay recovers exactly the batches that are wholly inside
// the kept prefix — never panicking, never inventing data, and flagging
// a torn tail via TailErr whenever the cut is off a boundary.
func TestWALTruncationMatrix(t *testing.T) {
	_, data := writeTestWAL(t)
	bs := boundaries()
	for cut := 0; cut <= len(data); cut++ {
		rec, err := Replay(data[:cut])
		if err != nil {
			// Pure truncation is always recoverable: the bytes are a
			// prefix of a genuine WAL, so nothing should look foreign.
			t.Fatalf("cut %d: fatal error %v, want recovery", cut, err)
		}
		// The longest boundary at or before the cut decides both the
		// intact length and the recovered batch count.
		wantIntact, wantBatches := int64(0), 0
		for i, b := range bs {
			if b <= int64(cut) {
				wantIntact = b
				wantBatches = i // bs[0] is the header: 0 batches
			}
		}
		if rec.Intact != wantIntact {
			t.Fatalf("cut %d: Intact = %d, want %d", cut, rec.Intact, wantIntact)
		}
		checkPrefix(t, rec, wantBatches)
		onBoundary := int64(cut) == wantIntact && (cut == 0 || wantIntact > 0)
		if onBoundary && rec.TailErr != nil {
			t.Fatalf("cut %d: TailErr = %v on a clean boundary", cut, rec.TailErr)
		}
		if !onBoundary && rec.TailErr == nil {
			t.Fatalf("cut %d: TailErr = nil with %d torn bytes", cut, int64(cut)-wantIntact)
		}
	}
}

// TestWALCorruptionMatrix flips one bit at every byte position and checks
// that Replay either refuses the file outright (header corruption — the
// file no longer looks like a WAL) or recovers only batches strictly
// before the corrupted byte, with content identical to what was written.
// It must never panic and never return a corrupted batch as intact.
func TestWALCorruptionMatrix(t *testing.T) {
	_, data := writeTestWAL(t)
	bs := boundaries()
	for pos := 0; pos < len(data); pos++ {
		img := append([]byte(nil), data...)
		img[pos] ^= 0x40
		rec, err := Replay(img)
		if err != nil {
			if int64(pos) >= bs[0] {
				t.Fatalf("pos %d: fatal error %v for corruption past the header", pos, err)
			}
			continue // header no longer ours: refusing is correct
		}
		if rec.TailErr == nil {
			t.Fatalf("pos %d: corruption not detected (Intact=%d, %d batches)",
				pos, rec.Intact, len(rec.Batches))
		}
		// Exactly the batches strictly before the corrupted byte must be
		// recovered: later ones are unsound, earlier ones were verified
		// before the scan reached the defect.
		want := 0
		for i, b := range bs[1:] {
			if b <= int64(pos) {
				want = i + 1
			}
		}
		if len(rec.Batches) != want {
			t.Fatalf("pos %d: recovered %d batches, want %d",
				pos, len(rec.Batches), want)
		}
		checkPrefix(t, rec, want)
	}
}

// TestWALOpenTruncatesTornTail checks the full crash-recovery cycle:
// Open on a torn image truncates the tail, reports the intact prefix,
// and leaves the log appendable with a contiguous sequence.
func TestWALOpenTruncatesTornTail(t *testing.T) {
	path, data := writeTestWAL(t)
	bs := boundaries()
	torn := bs[2] + 5 // header + 2 batches + 5 bytes of batch 3
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(path, FsyncAlways)
	if err != nil {
		t.Fatalf("Open on torn image: %v", err)
	}
	if rec.TailErr == nil {
		t.Fatal("TailErr = nil, want torn-tail report")
	}
	checkPrefix(t, rec, 2)
	if fi, err := os.Stat(path); err != nil || fi.Size() != bs[2] {
		t.Fatalf("file size after Open = %v/%v, want %d", fi.Size(), err, bs[2])
	}
	if _, _, err := l.Append([]Op{{From: 100, To: 200}}, false); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := Replay(final)
	if err != nil || rec2.TailErr != nil {
		t.Fatalf("Replay after recovery+append: %v / %v", err, rec2.TailErr)
	}
	if len(rec2.Batches) != 3 || rec2.Batches[2].Seq != 3 {
		t.Fatalf("batches after recovery+append = %+v, want seqs 1..3", rec2.Batches)
	}
	if !sameOps(rec2.Batches[2].Ops, []Op{{From: 100, To: 200}}) {
		t.Fatalf("post-recovery batch = %v", rec2.Batches[2].Ops)
	}
}

// TestWALOpenRefusesForeignFile: a file that was never a WAL must not be
// truncated or overwritten.
func TestWALOpenRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notawal")
	content := []byte("precious bytes that are not a WAL")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, FsyncAlways); err == nil {
		t.Fatal("Open accepted a foreign file")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != string(content) {
		t.Fatalf("foreign file modified: %q / %v", got, err)
	}
}

// TestWALOpenTornHeader: a file killed before its header finished is the
// recoverable degenerate case — Open rewrites the header and starts over.
func TestWALOpenTornHeader(t *testing.T) {
	for cut := 0; cut < int(walHeaderLen); cut++ {
		path, data := writeTestWAL(t)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(path, FsyncAlways)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(rec.Batches) != 0 {
			t.Fatalf("cut %d: recovered %d batches from a headerless file", cut, len(rec.Batches))
		}
		if _, _, err := l.Append([]Op{{From: 1, To: 2}}, false); err != nil {
			t.Fatalf("cut %d: Append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		final, _ := os.ReadFile(path)
		rec2, err := Replay(final)
		if err != nil || rec2.TailErr != nil || len(rec2.Batches) != 1 {
			t.Fatalf("cut %d: fresh log replay = %+v / %v", cut, rec2, err)
		}
	}
}

// TestWALAppendRollback: an injected failure at either WAL site must
// leave the on-disk file exactly at the last committed batch, and the
// log must keep working once the fault clears.
func TestWALAppendRollback(t *testing.T) {
	for _, site := range []string{SiteWALAppend, SiteWALFsync} {
		t.Run(site, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.wal")
			l, _, err := Open(path, FsyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, _, err := l.Append([]Op{{From: 1, To: 2}}, false); err != nil {
				t.Fatal(err)
			}
			committed := l.Size()

			faultinject.Activate(&faultinject.Plan{Site: site, Kind: faultinject.Error})
			t.Cleanup(faultinject.Deactivate)
			_, _, err = l.Append([]Op{{From: 3, To: 4}}, false)
			var inj *faultinject.Injected
			if !errors.As(err, &inj) {
				t.Fatalf("Append with armed %s = %v, want injected error", site, err)
			}
			if l.Size() != committed {
				t.Fatalf("Size after failed append = %d, want %d", l.Size(), committed)
			}
			if fi, _ := os.Stat(path); fi.Size() != committed {
				t.Fatalf("on-disk size after failed append = %d, want %d", fi.Size(), committed)
			}

			// The plan fires once; the retry must commit with seq 2 —
			// no gap from the failed attempt.
			if _, _, err := l.Append([]Op{{From: 3, To: 4}}, false); err != nil {
				t.Fatalf("Append after fault cleared: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, _ := os.ReadFile(path)
			rec, err := Replay(data)
			if err != nil || rec.TailErr != nil {
				t.Fatalf("Replay: %v / %v", err, rec.TailErr)
			}
			if len(rec.Batches) != 2 || rec.Batches[1].Seq != 2 {
				t.Fatalf("batches = %+v, want seqs 1,2", rec.Batches)
			}
		})
	}
}

// TestWALZerosAheadOfTheTail: an open log keeps zeros past its last batch
// so that appends overwrite existing blocks — the file grows once per
// walAhead bytes, not once per block — and the format knows nothing of
// them. A process that dies leaves them behind as a torn tail: Replay stops
// at the last batch with a TailErr, the next Open cuts them off. Close cuts
// them too, so a closed log is exactly its batches.
func TestWALZerosAheadOfTheTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	fileSize := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	ops := make([]Op, 32)
	grown, last := 0, fileSize()
	for i := 0; i < 2000; i++ { // ≈1 MB of batches
		if _, _, err := l.Append(ops, false); err != nil {
			t.Fatal(err)
		}
		if now := fileSize(); now != last {
			grown, last = grown+1, now
		}
	}
	if last < l.Size() || last > l.Size()+walAhead || grown != 1 {
		t.Fatalf("%d bytes of batches in a %d-byte file that grew %d times — want the file ahead of the log by at most %d bytes, grown once", l.Size(), last, grown, walAhead)
	}
	// Not closed: the process "dies" here, zeros and all.
	data, _ := os.ReadFile(path)
	rec, err := Replay(data)
	if err != nil || rec.TailErr == nil || len(rec.Batches) != 2000 || rec.Intact != l.Size() {
		t.Fatalf("Replay over the zeros: %v / %v, %d batches, intact %d of %d", err, rec.TailErr, len(rec.Batches), rec.Intact, l.Size())
	}
	l2, rec, err := Open(path, FsyncNever)
	if err != nil || len(rec.Batches) != 2000 {
		t.Fatalf("Open over the zeros: %v, %d batches", err, len(rec.Batches))
	}
	if fileSize() != rec.Intact {
		t.Fatalf("Open left a %d-byte file for %d intact bytes", fileSize(), rec.Intact)
	}
	if _, _, err := l2.Append([]Op{{From: 7, To: 8}}, false); err != nil {
		t.Fatal(err)
	}
	want := l2.Size()
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if fileSize() != want {
		t.Fatalf("closed log is %d bytes on disk, %d of batches", fileSize(), want)
	}
	data, _ = os.ReadFile(path)
	if rec, err := Replay(data); err != nil || rec.TailErr != nil || rec.Intact != want || len(rec.Batches) != 2001 || rec.Batches[2000].Seq != 2001 {
		t.Fatalf("Replay of the closed log: %v / %v, %d batches", err, rec.TailErr, len(rec.Batches))
	}
}

// TestWALSyncInjectedError: the Flush barrier's fsync can fail too.
func TestWALSyncInjectedError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	faultinject.Activate(&faultinject.Plan{Site: SiteWALFsync, Kind: faultinject.Error})
	t.Cleanup(faultinject.Deactivate)
	if err := l.Sync(); err == nil {
		t.Fatal("Sync with armed fsync fault = nil")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after fault cleared: %v", err)
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]Op{{From: 1, To: 2}}, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
}

// TestWALKillMidCommit re-executes the test binary as a writer child
// that appends fsynced batches in a tight loop, reporting each
// acknowledged sequence number on stdout. The parent SIGKILLs it
// mid-stream — a real crash, not a simulated one — and then verifies the
// recovered WAL holds at least every acknowledged batch, with intact
// checksums and contiguous sequence.
func TestWALKillMidCommit(t *testing.T) {
	if path := os.Getenv("WAL_CRASH_CHILD"); path != "" {
		walCrashChild(path)
		return
	}
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	path := filepath.Join(t.TempDir(), "crash.wal")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWALKillMidCommit$", "-test.v")
	cmd.Env = append(os.Environ(), "WAL_CRASH_CHILD="+path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Read acked seqs until we have a few, then kill without warning.
	var lastAcked uint64
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		seq, err := strconv.ParseUint(strings.TrimPrefix(line, "acked "), 10, 64)
		if !strings.HasPrefix(line, "acked ") || err != nil {
			continue // test framework chatter
		}
		lastAcked = seq
		if seq >= 20 {
			break
		}
	}
	if lastAcked == 0 {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never acknowledged a batch")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to be non-nil (killed)

	l, rec, err := Open(path, FsyncAlways)
	if err != nil {
		t.Fatalf("Open after kill: %v", err)
	}
	defer l.Close()
	if got := uint64(len(rec.Batches)); got < lastAcked {
		t.Fatalf("recovered %d batches, but %d were acknowledged before the kill", got, lastAcked)
	}
	for i, b := range rec.Batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d seq = %d, want %d", i, b.Seq, i+1)
		}
		if want := []Op{{From: uint32(b.Seq), To: uint32(b.Seq + 1)}}; !sameOps(b.Ops, want) {
			t.Fatalf("batch %d ops = %v, want %v", i, b.Ops, want)
		}
	}
}

// walCrashChild is the writer side of TestWALKillMidCommit: append
// fsynced one-op batches forever, printing "acked N" only after Append
// returns (i.e. after the fsync). It never exits on its own; the parent
// kills it.
func walCrashChild(path string) {
	l, _, err := Open(path, FsyncAlways)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	for seq := uint64(1); ; seq++ {
		if _, _, err := l.Append([]Op{{From: uint32(seq), To: uint32(seq + 1)}}, false); err != nil {
			fmt.Fprintln(os.Stderr, "child append:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "acked %d\n", seq)
		w.Flush()
		time.Sleep(time.Millisecond)
	}
}

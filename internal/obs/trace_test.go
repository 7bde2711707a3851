package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tok := tr.Begin("phase")
	if tok != -1 {
		t.Fatalf("nil Begin = %d, want -1", tok)
	}
	tr.End(tok)
	tr.SetRoute("plain/bfl")
	tr.SetError("boom")
	if tr.Elapsed() != 0 {
		t.Fatalf("nil Elapsed = %v, want 0", tr.Elapsed())
	}
	if tr.Phases() != nil {
		t.Fatalf("nil Phases = %v, want nil", tr.Phases())
	}

	var tcr *Tracer
	if got := tcr.Start("id"); got != nil {
		t.Fatalf("nil Tracer.Start = %v, want nil", got)
	}
	if slow := tcr.Finish(nil); slow {
		t.Fatal("nil Tracer.Finish reported slow")
	}
	if s := tcr.Stats(); s.Started != 0 {
		t.Fatalf("nil Tracer.Stats = %+v", s)
	}
	if s := tcr.Snapshot(); s.Recent != nil || s.Slow != nil {
		t.Fatalf("nil Tracer.Snapshot = %+v", s)
	}
}

func TestTracePhaseNestingAndOverflow(t *testing.T) {
	tcr := NewTracer(8, 0)
	tr := tcr.Start("")
	outer := tr.Begin("outer")
	inner := tr.Begin("inner")
	tr.End(inner)
	tr.End(outer)
	ph := tr.Phases()
	if len(ph) != 2 {
		t.Fatalf("phases = %d, want 2", len(ph))
	}
	if ph[0].Name != "outer" || ph[0].Depth != 0 {
		t.Fatalf("outer phase = %+v", ph[0])
	}
	if ph[1].Name != "inner" || ph[1].Depth != 1 {
		t.Fatalf("inner phase = %+v", ph[1])
	}
	if ph[0].Dur <= 0 || ph[1].Dur < 0 {
		t.Fatalf("durations = %v, %v", ph[0].Dur, ph[1].Dur)
	}

	// Past the cap every Begin is dropped and counted, never grown.
	for i := len(ph); i < MaxTracePhases; i++ {
		tr.End(tr.Begin("fill"))
	}
	for i := 0; i < 5; i++ {
		tok := tr.Begin("overflow")
		if tok != -1 {
			t.Fatalf("overflow Begin = %d, want -1", tok)
		}
		tr.End(tok)
	}
	tcr.Finish(tr)
	rec := tcr.Snapshot().Recent[0]
	if rec.DroppedPhases != 5 {
		t.Fatalf("DroppedPhases = %d, want 5", rec.DroppedPhases)
	}
	if len(rec.Phases) != MaxTracePhases {
		t.Fatalf("retained phases = %d, want %d", len(rec.Phases), MaxTracePhases)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	const capacity = 4
	tcr := NewTracer(capacity, 0)
	for i := 0; i < 10; i++ {
		tr := tcr.Start(fmt.Sprintf("req-%d", i))
		tcr.Finish(tr)
	}
	snap := tcr.Snapshot()
	if snap.Started != 10 || snap.Finished != 10 {
		t.Fatalf("counters = %d/%d, want 10/10", snap.Started, snap.Finished)
	}
	if len(snap.Recent) != capacity {
		t.Fatalf("recent = %d records, want %d", len(snap.Recent), capacity)
	}
	// Newest first: 9, 8, 7, 6.
	for i, rec := range snap.Recent {
		want := fmt.Sprintf("req-%d", 9-i)
		if rec.ID != want {
			t.Fatalf("recent[%d].ID = %q, want %q", i, rec.ID, want)
		}
	}
	if len(snap.Slow) != 0 {
		t.Fatalf("slow log = %d records with threshold disabled", len(snap.Slow))
	}
}

func TestTracerSlowThresholdEdges(t *testing.T) {
	const threshold = 10 * time.Millisecond
	tcr := NewTracer(4, threshold)

	// Exactly at the threshold counts as slow (>=, not >).
	at := tcr.Start("at")
	at.start = time.Now().Add(-threshold)
	if slow := tcr.Finish(at); !slow {
		t.Fatal("trace exactly at threshold not flagged slow")
	}
	// Well under stays fast.
	under := tcr.Start("under")
	if slow := tcr.Finish(under); slow {
		t.Fatal("fast trace flagged slow")
	}
	// Far over is slow.
	over := tcr.Start("over")
	over.start = time.Now().Add(-10 * threshold)
	if slow := tcr.Finish(over); !slow {
		t.Fatal("trace over threshold not flagged slow")
	}

	snap := tcr.Snapshot()
	if snap.TracerStats.Slow != 2 {
		t.Fatalf("slow counter = %d, want 2", snap.TracerStats.Slow)
	}
	if len(snap.Slow) != 2 {
		t.Fatalf("slow ring = %d records, want 2", len(snap.Slow))
	}
	if snap.Slow[0].ID != "over" || snap.Slow[1].ID != "at" {
		t.Fatalf("slow ring order = %q, %q (want over, at)", snap.Slow[0].ID, snap.Slow[1].ID)
	}

	// Threshold <= 0 disables the slow log entirely.
	off := NewTracer(4, 0)
	tr := off.Start("x")
	tr.start = time.Now().Add(-time.Hour)
	if slow := off.Finish(tr); slow {
		t.Fatal("slow flag set with threshold disabled")
	}
}

func TestTracerIDs(t *testing.T) {
	tcr := NewTracer(4, 0)
	// A propagated ID is kept verbatim.
	tr := tcr.Start("caller-supplied")
	if tr.ID != "caller-supplied" {
		t.Fatalf("ID = %q, want caller-supplied", tr.ID)
	}
	tcr.Finish(tr)
	// Generated IDs are non-empty and unique.
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tr := tcr.Start("")
		if tr.ID == "" || seen[tr.ID] {
			t.Fatalf("generated ID %q empty or repeated", tr.ID)
		}
		seen[tr.ID] = true
		tcr.Finish(tr)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tcr := NewTracer(16, time.Nanosecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := tcr.Start("")
				tok := tr.Begin("work")
				tr.SetRoute("plain/bfl")
				tr.End(tok)
				tcr.Finish(tr)
			}
		}()
	}
	// Concurrent scrapes must not race the rings.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tcr.Snapshot()
			tcr.Stats()
		}
	}()
	wg.Wait()
	s := tcr.Stats()
	if s.Started != 1600 || s.Finished != 1600 {
		t.Fatalf("counters = %d/%d, want 1600/1600", s.Started, s.Finished)
	}
}

func TestWithTraceContext(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom on empty ctx != nil")
	}
	tcr := NewTracer(1, 0)
	tr := tcr.Start("ctx")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
	// Nil trace leaves the context untouched.
	base := context.Background()
	if WithTrace(base, nil) != base {
		t.Fatal("WithTrace(nil) allocated a new context")
	}
	tcr.Finish(tr)
}

// TestTracerSnapshotOwnsPhases: a ring slot's phase array is reused by the
// records after it, so a Snapshot must deep-copy. One taken before 600
// further Finish calls (more than twice round both rings, some of them
// running while the snapshot is read) is unchanged after them.
func TestTracerSnapshotOwnsPhases(t *testing.T) {
	tcr := NewTracer(256, time.Nanosecond) // every trace also lands in the slow ring
	finish := func(i int) {
		tr := tcr.Start(fmt.Sprintf("req-%d", i))
		for j := 0; j <= i%4; j++ {
			tr.End(tr.Begin(fmt.Sprintf("phase-%d-%d", i, j)))
		}
		tcr.Finish(tr)
	}
	for i := 0; i < 300; i++ {
		finish(i)
	}
	snap := tcr.Snapshot()
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 300; i < 900; i++ {
			finish(i)
		}
	}()
	var names int
	for _, ring := range [][]TraceRecord{snap.Recent, snap.Slow} {
		for _, rec := range ring {
			for _, p := range rec.Phases {
				names += len(p.Name)
			}
		}
	}
	<-done
	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if names == 0 || !bytes.Equal(before, after) {
		t.Fatal("a Snapshot changed after later Finish calls: its phases alias the ring")
	}
}

// TestTracerSlowSlotOwnsPhases: a slow record keeps its phases after the
// recent-ring slot that recorded it has been reused by fast requests —
// the two rings never share a phase array.
func TestTracerSlowSlotOwnsPhases(t *testing.T) {
	tcr := NewTracer(4, 50*time.Millisecond)
	finish := func(id, phase string, sleep time.Duration) {
		tr := tcr.Start(id)
		tr.End(tr.Begin(phase))
		time.Sleep(sleep)
		tcr.Finish(tr)
	}
	finish("slow", "slow-phase", 60*time.Millisecond)
	for i := 0; i < 8; i++ {
		finish(fmt.Sprintf("fast-%d", i), fmt.Sprintf("fast-phase-%d", i), 0)
	}
	for _, rec := range tcr.Snapshot().Slow {
		if rec.ID != "slow" {
			continue
		}
		if len(rec.Phases) != 1 || rec.Phases[0].Name != "slow-phase" {
			t.Fatalf("slow record's phases %+v, want one slow-phase", rec.Phases)
		}
		return
	}
	t.Fatal("the slow trace is not in the slow ring")
}

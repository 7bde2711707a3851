package reach

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/obs"
)

// TestDBTracingPhases threads a trace through every query entry point
// and checks the DB appends the phase timeline OBSERVABILITY.md
// documents — and that a DB with nothing of its own watching (no
// metrics, cache or capture) still records into a trace its context
// carries: the trace in the context is the one switch.
func TestDBTracingPhases(t *testing.T) {
	db, err := NewDB(Fig1Labeled(), DBConfig{Metrics: true, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(8, 0)

	phasesOf := func(run func(ctx context.Context)) []string {
		tr := tracer.Start("")
		run(obs.WithTrace(context.Background(), tr))
		tracer.Finish(tr)
		var names []string
		for _, p := range tracer.Snapshot().Recent[0].Phases {
			names = append(names, p.Name)
		}
		return names
	}
	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}

	names := phasesOf(func(ctx context.Context) {
		if _, err := db.ReachCtx(ctx, 0, 4); err != nil {
			t.Fatalf("ReachCtx: %v", err)
		}
	})
	for _, want := range []string{"cache/lookup", "index/probe"} {
		if !has(names, want) {
			t.Fatalf("ReachCtx phases %v missing %q", names, want)
		}
	}

	names = phasesOf(func(ctx context.Context) {
		if _, err := db.QueryCtx(ctx, 0, 4, "(friendOf|follows)*"); err != nil {
			t.Fatalf("QueryCtx: %v", err)
		}
	})
	if !has(names, "parse") {
		t.Fatalf("QueryCtx phases %v missing parse", names)
	}

	bare, err := NewDB(Fig1Labeled(), DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	names = phasesOf(func(ctx context.Context) {
		if _, err := bare.ReachCtx(ctx, 0, 4); err != nil {
			t.Fatalf("ReachCtx: %v", err)
		}
	})
	if !has(names, "index/probe") || has(names, "cache/lookup") {
		t.Fatalf("DBConfig{} ReachCtx phases %v, want index/probe and no cache/lookup", names)
	}
}

// TestDBWorkloadCapture runs queries through a recording DB and checks
// the capture round-trips with the right shapes per entry point.
func TestDBWorkloadCapture(t *testing.T) {
	var buf bytes.Buffer
	rec := NewWorkloadRecorder(&buf)
	db, err := NewDB(Fig1Labeled(), DBConfig{RecordWorkload: rec})
	if err != nil {
		t.Fatal(err)
	}

	wantReach, err := db.Reach(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	alpha := "(friendOf|follows)*"
	if _, err := db.Query(0, 4, alpha); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryAllowed(0, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}

	records, err := ReadWorkload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadWorkload: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("captured %d records, want 3", len(records))
	}
	r0 := records[0]
	if r0.S != 0 || r0.T != 4 || r0.Alpha != "" || r0.Labels != nil {
		t.Fatalf("reach record = %+v", r0)
	}
	if r0.Outcome != wantReach {
		t.Fatalf("reach outcome = %v, want %v", r0.Outcome, wantReach)
	}
	if r0.Route == "" || r0.Latency <= 0 {
		t.Fatalf("reach record missing route/latency: %+v", r0)
	}
	if records[1].Alpha != alpha {
		t.Fatalf("query record alpha = %q, want %q", records[1].Alpha, alpha)
	}
	if got := records[2].Labels; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("allowed record labels = %v, want [0 1]", got)
	}

	// Replaying a record against the same DB reproduces the outcome —
	// the invariant `reachcli replay` counts mismatches against.
	for _, r := range records {
		var got bool
		switch {
		case len(r.Labels) > 0:
			labels := make([]Label, len(r.Labels))
			for i, l := range r.Labels {
				labels[i] = Label(l)
			}
			got, err = db.QueryAllowed(V(r.S), V(r.T), labels...)
		case r.Alpha != "":
			got, err = db.Query(V(r.S), V(r.T), r.Alpha)
		default:
			got, err = db.Reach(V(r.S), V(r.T))
		}
		if err != nil {
			t.Fatalf("replay %+v: %v", r, err)
		}
		if got != r.Outcome {
			t.Fatalf("replay %+v: outcome %v", r, got)
		}
	}
}

package advise

import (
	"testing"

	"repro/internal/bfl"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/scc"
	"repro/internal/workload"
)

func TestMeasurePlainDeterministicMismatch(t *testing.T) {
	g := gen.RandomDAG(gen.Config{N: 300, M: 900, Seed: 17})
	ix := core.ForGeneralPrepared(g, nil, 1, 1, core.NewPrepared(g), func(c *scc.Condensation) core.Index {
		return bfl.New(c, bfl.Options{})
	})
	qs := gen.Queries(g, 80, 18)
	recs := make([]workload.Record, len(qs))
	for i, q := range qs {
		recs[i] = workload.Record{S: uint32(q.S), T: uint32(q.T), Route: "plain", Outcome: q.Want}
	}
	// Flip one recorded outcome: exactly one mismatch must surface.
	recs[0].Outcome = !recs[0].Outcome
	m := measurePlain(ix, recs, 4)
	if m.Mismatches != 1 || m.Queries != len(recs) {
		t.Fatalf("measurement = %+v, want 1 mismatch over %d queries", m, len(recs))
	}
	if m.P50NS < 0 || m.P99NS < m.P50NS {
		t.Fatalf("percentiles inverted: %+v", m)
	}
}

package mutate

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// baseOf builds an inBase predicate from an edge list.
func baseOf(edges ...[2]uint32) func(from, to uint32) bool {
	set := make(map[uint64]struct{}, len(edges))
	for _, e := range edges {
		set[EdgeKey(e[0], e[1])] = struct{}{}
	}
	return func(from, to uint32) bool {
		_, ok := set[EdgeKey(from, to)]
		return ok
	}
}

func add(from, to uint32) Op    { return Op{From: from, To: to} }
func remove(from, to uint32) Op { return Op{Remove: true, From: from, To: to} }

// TestOverlayNetSemantics drives op sequences against bases and checks
// the overlay converges to the net difference — the property the exact
// query path and the reindexer both depend on.
func TestOverlayNetSemantics(t *testing.T) {
	tests := []struct {
		name        string
		base        func(from, to uint32) bool
		ops         []Op
		wantAdded   [][2]uint32
		wantRemoved [][2]uint32
	}{
		{
			name:      "add new edge",
			base:      baseOf(),
			ops:       []Op{add(1, 2)},
			wantAdded: [][2]uint32{{1, 2}},
		},
		{
			name: "add existing edge is a no-op",
			base: baseOf([2]uint32{1, 2}),
			ops:  []Op{add(1, 2)},
		},
		{
			name:        "remove base edge",
			base:        baseOf([2]uint32{1, 2}),
			ops:         []Op{remove(1, 2)},
			wantRemoved: [][2]uint32{{1, 2}},
		},
		{
			name: "remove absent edge is a no-op",
			base: baseOf(),
			ops:  []Op{remove(1, 2)},
		},
		{
			name: "add then remove cancels",
			base: baseOf(),
			ops:  []Op{add(1, 2), remove(1, 2)},
		},
		{
			name: "remove then add cancels",
			base: baseOf([2]uint32{1, 2}),
			ops:  []Op{remove(1, 2), add(1, 2)},
		},
		{
			// The regression ISSUE calls out: add/remove/add of the same
			// edge must converge to exactly one edge, not zero or two.
			name:      "add remove add converges (new edge)",
			base:      baseOf(),
			ops:       []Op{add(1, 2), remove(1, 2), add(1, 2)},
			wantAdded: [][2]uint32{{1, 2}},
		},
		{
			name: "remove add remove converges (base edge)",
			base: baseOf([2]uint32{1, 2}),
			ops: []Op{
				remove(1, 2), add(1, 2), remove(1, 2),
			},
			wantRemoved: [][2]uint32{{1, 2}},
		},
		{
			name:      "self-loop add remove add",
			base:      baseOf(),
			ops:       []Op{add(7, 7), remove(7, 7), add(7, 7)},
			wantAdded: [][2]uint32{{7, 7}},
		},
		{
			name:        "self-loop in base removed",
			base:        baseOf([2]uint32{7, 7}),
			ops:         []Op{remove(7, 7)},
			wantRemoved: [][2]uint32{{7, 7}},
		},
		{
			// Duplicate adds of the same new edge must not double-count
			// (a later remove would leave a phantom).
			name:      "duplicate adds collapse",
			base:      baseOf(),
			ops:       []Op{add(1, 2), add(1, 2), add(1, 2)},
			wantAdded: [][2]uint32{{1, 2}},
		},
		{
			name: "duplicate adds then one remove clears",
			base: baseOf(),
			ops:  []Op{add(1, 2), add(1, 2), remove(1, 2)},
		},
		{
			name:        "mixed edges stay independent",
			base:        baseOf([2]uint32{1, 2}, [2]uint32{3, 4}),
			ops:         []Op{remove(1, 2), add(5, 6), remove(3, 4), add(3, 4)},
			wantAdded:   [][2]uint32{{5, 6}},
			wantRemoved: [][2]uint32{{1, 2}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// As one batch, and as one batch per op: the same net state.
			checkOverlay(t, NewOverlay().Apply(tc.ops, tc.base), tc.wantAdded, tc.wantRemoved)
			o := NewOverlay()
			for _, op := range tc.ops {
				o = o.Apply([]Op{op}, tc.base)
			}
			checkOverlay(t, o, tc.wantAdded, tc.wantRemoved)
		})
	}
}

func edgesOf(keys []uint64) [][2]uint32 {
	var es [][2]uint32
	for _, k := range keys {
		from, to := KeyEdge(k)
		es = append(es, [2]uint32{from, to})
	}
	return es
}

func checkOverlay(t *testing.T, o *Overlay, wantAdded, wantRemoved [][2]uint32) {
	t.Helper()
	sortEdges(wantAdded)
	sortEdges(wantRemoved)
	if got := edgesOf(o.Added()); !slices.Equal(got, wantAdded) {
		t.Errorf("added = %v, want %v (sorted)", got, wantAdded)
	}
	if got := edgesOf(o.Removed()); !slices.Equal(got, wantRemoved) {
		t.Errorf("removed = %v, want %v (sorted)", got, wantRemoved)
	}
	if o.AddedCount() != len(wantAdded) || o.RemovedCount() != len(wantRemoved) {
		t.Errorf("counts = %d/%d, want %d/%d",
			o.AddedCount(), o.RemovedCount(), len(wantAdded), len(wantRemoved))
	}
	if o.Size() != len(wantAdded)+len(wantRemoved) {
		t.Errorf("Size = %d", o.Size())
	}
	if o.Empty() != (len(wantAdded)+len(wantRemoved) == 0) {
		t.Errorf("Empty = %v", o.Empty())
	}
	// The per-source ranges must partition exactly the two sets.
	for _, c := range []struct {
		name string
		want [][2]uint32
		has  func(from, to uint32) bool
		succ func(u uint32) []uint64
	}{
		{"Added", wantAdded, o.HasAdded, o.AddedSucc},
		{"Removed", wantRemoved, o.HasRemoved, o.RemovedSucc},
	} {
		n := 0
		for i, e := range c.want {
			if !c.has(e[0], e[1]) {
				t.Errorf("Has%s(%d,%d) = false", c.name, e[0], e[1])
			}
			if i > 0 && c.want[i-1][0] == e[0] {
				continue
			}
			for _, k := range c.succ(e[0]) {
				if from, to := KeyEdge(k); from != e[0] || !c.has(from, to) {
					t.Errorf("%sSucc(%d) holds %d→%d", c.name, e[0], from, to)
				}
				n++
			}
		}
		if n != len(c.want) {
			t.Errorf("%sSucc ranges hold %d entries, want %d (phantom or dropped successor)", c.name, n, len(c.want))
		}
	}
}

func sortEdges(es [][2]uint32) {
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
}

// TestOverlayApplyLeavesReceiver: an overlay is immutable — readers hold
// snapshots while commits build the next one — so Apply must never write
// through to the value it was called on, shared runs included.
func TestOverlayApplyLeavesReceiver(t *testing.T) {
	base := baseOf([2]uint32{1, 2})
	o := NewOverlay().Apply([]Op{add(3, 4), remove(1, 2)}, base)
	c := o.Apply([]Op{add(5, 6), add(1, 2)}, base) // the second cancels the removal in c only
	checkOverlay(t, o, [][2]uint32{{3, 4}}, [][2]uint32{{1, 2}})
	checkOverlay(t, c, [][2]uint32{{3, 4}, {5, 6}}, nil)
	d := c.Apply([]Op{remove(3, 4)}, base) // touches added only: removed is shared, and stays empty
	checkOverlay(t, c, [][2]uint32{{3, 4}, {5, 6}}, nil)
	checkOverlay(t, d, [][2]uint32{{5, 6}}, nil)
}

// TestOverlayRebase covers the reindexer hand-off, including the revert
// race it exists for: an op arriving during the rebuild that undoes a
// change the snapshot already folded into the new base.
func TestOverlayRebase(t *testing.T) {
	g0 := baseOf([2]uint32{1, 2}, [2]uint32{3, 4})

	// Snapshot taken: remove (1,2), add (5,6); the new base is g0 minus
	// (1,2) plus (5,6).
	snap := NewOverlay().Apply([]Op{remove(1, 2), add(5, 6)}, g0)

	t.Run("no ops during rebuild", func(t *testing.T) {
		checkOverlay(t, Rebase(snap, snap), nil, nil)
	})

	t.Run("ops during rebuild carry forward", func(t *testing.T) {
		cur := snap.Apply([]Op{add(7, 8), remove(3, 4)}, g0)
		checkOverlay(t, Rebase(cur, snap), [][2]uint32{{7, 8}}, [][2]uint32{{3, 4}})
	})

	t.Run("revert of folded removal", func(t *testing.T) {
		// (1,2) was removed in the snapshot — g1 lacks it — then re-added
		// while the rebuild ran. cur sees the pair in *neither* net set
		// (remove then add cancels), yet the live graph has the edge and
		// g1 does not: only the snapshot comparison can recover it.
		cur := snap.Apply([]Op{add(1, 2)}, g0)
		checkOverlay(t, Rebase(cur, snap), [][2]uint32{{1, 2}}, nil)
	})

	t.Run("revert of folded addition", func(t *testing.T) {
		// Dual case: (5,6) was added in the snapshot — g1 has it — then
		// removed while the rebuild ran.
		cur := snap.Apply([]Op{remove(5, 6)}, g0)
		checkOverlay(t, Rebase(cur, snap), nil, [][2]uint32{{5, 6}})
	})
}

// edgeSet is the model's graph: the set of present edge keys.
type edgeSet map[uint64]struct{}

func (g edgeSet) has(from, to uint32) bool {
	_, ok := g[EdgeKey(from, to)]
	return ok
}

// sameAsOracle compares the sorted-run overlay with the map-based oracle:
// both sets, through every accessor checkOverlay knows.
func sameAsOracle(t *testing.T, o *Overlay, want *mapOverlay, when string) {
	t.Helper()
	keys := func(set map[uint64]struct{}) [][2]uint32 {
		ks := make([]uint64, 0, len(set))
		for k := range set {
			ks = append(ks, k)
		}
		return edgesOf(ks)
	}
	checkOverlay(t, o, keys(want.added), keys(want.removed))
	if t.Failed() {
		t.Fatalf("overlay diverged from the map-based oracle %s", when)
	}
}

// overlayModel drives the Overlay and the oracle with the same op stream
// over one base, through commits and rebuild hand-offs, and keeps the live
// edge set itself: what both must describe relative to the base.
type overlayModel struct {
	t          *testing.T
	n          uint32 // vertex universe of the ops
	base, live edgeSet
	ov         *Overlay
	want       *mapOverlay

	// An open rebuild: the snapshot it folded and the base it will publish.
	snap     *Overlay
	snapWant *mapOverlay
	g1       edgeSet
}

func newOverlayModel(t *testing.T, n uint32, base edgeSet) *overlayModel {
	return &overlayModel{t: t, n: n, base: base, live: maps.Clone(base), ov: NewOverlay(), want: newMapOverlay()}
}

func (m *overlayModel) check(when string) {
	m.t.Helper()
	sameAsOracle(m.t, m.ov, m.want, when)
	for u := uint32(0); u < m.n; u++ {
		for v := uint32(0); v < m.n; v++ {
			got := m.base.has(u, v) && !m.ov.HasRemoved(u, v) || m.ov.HasAdded(u, v)
			if got != m.live.has(u, v) {
				m.t.Fatalf("%s: base ± overlay has %d→%d = %v, the live graph says %v", when, u, v, got, !got)
			}
		}
	}
}

// commit applies ops as one batch to the overlay and one at a time to the
// oracle and the live set.
func (m *overlayModel) commit(ops []Op) {
	m.t.Helper()
	m.ov = m.ov.Apply(ops, m.base.has)
	for _, op := range ops {
		m.want.apply(op, m.base.has)
		if k := EdgeKey(op.From, op.To); op.Remove {
			delete(m.live, k)
		} else {
			m.live[k] = struct{}{}
		}
	}
	m.check("after a commit")
}

// beginRebuild folds the current overlay into a new base; commits keep
// landing on the old one — they may revert what was folded — until
// endRebuild rebases both sides onto the new base.
func (m *overlayModel) beginRebuild() {
	m.snap, m.snapWant, m.g1 = m.ov, m.want.clone(), maps.Clone(m.base)
	for _, k := range m.snap.Removed() {
		delete(m.g1, k)
	}
	for _, k := range m.snap.Added() {
		m.g1[k] = struct{}{}
	}
}

func (m *overlayModel) endRebuild() {
	m.t.Helper()
	m.ov = Rebase(m.ov, m.snap)
	m.want = rebaseMaps(m.want, m.snapWant, m.base.has, m.g1.has)
	m.base, m.g1 = m.g1, nil
	m.check("after a rebase")
}

// TestOverlayMatchesMapModel is the model test of the sorted-run overlay:
// seeded random add/remove/re-add batches on a small vertex set (so edges
// repeat, self-loops and adds of base edges included), with rebuilds whose
// window takes further commits, against the map-based oracle.
func TestOverlayMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 7
		base := edgeSet{}
		for i := 0; i < 12; i++ {
			base[EdgeKey(uint32(rng.Intn(n)), uint32(rng.Intn(n)))] = struct{}{}
		}
		m := newOverlayModel(t, n, base)
		for step := 0; step < 80; step++ {
			switch {
			case rng.Intn(6) > 0:
				ops := make([]Op, 1+rng.Intn(8))
				for i := range ops {
					ops[i] = Op{Remove: rng.Intn(2) == 0, From: uint32(rng.Intn(n)), To: uint32(rng.Intn(n))}
				}
				m.commit(ops)
			case m.g1 == nil:
				m.beginRebuild()
			default:
				m.endRebuild()
			}
		}
	}
}

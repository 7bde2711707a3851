package mutate

// mapOverlay is the map-based overlay the sorted-run Overlay replaced,
// kept as the reference the model test and FuzzOverlayApply compare it
// against: one op at a time, one map probe per decision, and a Rebase
// that re-derives every touched edge from the two graphs.
type mapOverlay struct {
	added   map[uint64]struct{}
	removed map[uint64]struct{}
}

func newMapOverlay() *mapOverlay {
	return &mapOverlay{added: map[uint64]struct{}{}, removed: map[uint64]struct{}{}}
}

func (o *mapOverlay) clone() *mapOverlay {
	c := newMapOverlay()
	for k := range o.added {
		c.added[k] = struct{}{}
	}
	for k := range o.removed {
		c.removed[k] = struct{}{}
	}
	return c
}

func (o *mapOverlay) apply(op Op, inBase func(from, to uint32) bool) {
	k := EdgeKey(op.From, op.To)
	if op.Remove {
		if _, ok := o.added[k]; ok {
			delete(o.added, k)
			return
		}
		if inBase(op.From, op.To) {
			o.removed[k] = struct{}{}
		}
		return
	}
	if _, ok := o.removed[k]; ok {
		delete(o.removed, k)
		return
	}
	if !inBase(op.From, op.To) {
		o.added[k] = struct{}{}
	}
}

func (o *mapOverlay) has(set map[uint64]struct{}, from, to uint32) bool {
	_, ok := set[EdgeKey(from, to)]
	return ok
}

// rebaseMaps is the old Rebase: for every edge either overlay touches, its
// live presence (cur's verdict, falling back to g0) against its presence
// in g1.
func rebaseMaps(cur, snap *mapOverlay, g0Has, g1Has func(from, to uint32) bool) *mapOverlay {
	out := newMapOverlay()
	consider := func(k uint64) {
		from, to := KeyEdge(k)
		var present bool
		switch {
		case cur.has(cur.added, from, to):
			present = true
		case cur.has(cur.removed, from, to):
			present = false
		default:
			present = g0Has(from, to)
		}
		switch {
		case present && !g1Has(from, to):
			out.added[k] = struct{}{}
		case !present && g1Has(from, to):
			out.removed[k] = struct{}{}
		}
	}
	for _, set := range []map[uint64]struct{}{cur.added, cur.removed, snap.added, snap.removed} {
		for k := range set {
			consider(k)
		}
	}
	return out
}

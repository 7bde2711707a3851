package mutate

import (
	"cmp"
	"slices"
)

// Overlay is the net difference between the live graph and the frozen
// graph the current index was built from: the edges added since the
// freeze and the edges removed from it, each as one sorted run of edge
// keys (from<<32 | to). An Overlay is immutable — Apply and Rebase return
// a fresh value built by one merge pass, readers use whatever snapshot
// they loaded — so query paths never lock and a commit costs the copy of
// two flat slices, not a hash per entry.
//
// Both sets are *net*: added holds no edge of the base, removed only
// edges of the base. Re-adding a removed edge cancels the removal rather
// than recording both, and removing a never-present edge records nothing.
// That makes add/remove/add of the same edge (including self-loops and
// edges duplicated in the base graph, which the base stores deduplicated)
// converge to exactly one state per edge.
type Overlay struct {
	added, removed []uint64
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay { return &Overlay{} }

// EdgeKey packs an edge into its key; keys order like (from, to), the
// order of a CSR edge list.
func EdgeKey(from, to uint32) uint64 { return uint64(from)<<32 | uint64(to) }

// KeyEdge unpacks an edge key.
func KeyEdge(k uint64) (from, to uint32) { return uint32(k >> 32), uint32(k) }

// Apply returns the overlay with ops folded in, in order. inBase reports
// whether an edge exists in the frozen base graph. Whatever came before,
// an edge is live after an add and gone after a remove, so the last op on
// each edge decides, and inBase says which set records that: an add of a
// base edge can only cancel a removal, an add of any other edge is an
// addition, and dually for removes. The batch is sorted, then merged into
// each set it touches; a set it leaves alone is shared with o.
func (o *Overlay) Apply(ops []Op, inBase func(from, to uint32) bool) *Overlay {
	type keyed struct {
		key    uint64
		seq    int
		remove bool
	}
	ks := make([]keyed, len(ops))
	for i, op := range ops {
		ks[i] = keyed{EdgeKey(op.From, op.To), i, op.Remove}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.seq, b.seq))
	})
	// The four things a batch does to the two sets, each sorted. They
	// share one backing array: every edge lands in exactly one.
	buf := make([]uint64, 4*len(ks))
	part := func(i int) []uint64 { return buf[i*len(ks) : i*len(ks) : (i+1)*len(ks)] }
	addDel, addIns, remDel, remIns := part(0), part(1), part(2), part(3)
	for i, k := range ks {
		if i+1 < len(ks) && ks[i+1].key == k.key {
			continue // a later op on the same edge decides
		}
		switch base := inBase(KeyEdge(k.key)); {
		case k.remove && base:
			remIns = append(remIns, k.key)
		case k.remove:
			addDel = append(addDel, k.key)
		case base:
			remDel = append(remDel, k.key)
		default:
			addIns = append(addIns, k.key)
		}
	}
	return &Overlay{merge(o.added, addDel, addIns), merge(o.removed, remDel, remIns)}
}

// merge returns (run \ del) ∪ ins, all three sorted and duplicate-free, in
// one pass; run itself when there is nothing to delete or insert.
func merge(run, del, ins []uint64) []uint64 {
	if len(del) == 0 && len(ins) == 0 {
		return run
	}
	out := make([]uint64, 0, len(run)+len(ins))
	for _, k := range run {
		for len(ins) > 0 && ins[0] <= k {
			if ins[0] < k {
				out = append(out, ins[0])
			}
			ins = ins[1:]
		}
		for len(del) > 0 && del[0] < k {
			del = del[1:]
		}
		if len(del) > 0 && del[0] == k {
			continue
		}
		out = append(out, k)
	}
	return append(out, ins...)
}

// Empty reports whether the overlay changes nothing.
func (o *Overlay) Empty() bool { return len(o.added) == 0 && len(o.removed) == 0 }

// AddedCount returns the number of net-added edges.
func (o *Overlay) AddedCount() int { return len(o.added) }

// RemovedCount returns the number of net-removed edges.
func (o *Overlay) RemovedCount() int { return len(o.removed) }

// Size returns the total number of overlaid edges.
func (o *Overlay) Size() int { return len(o.added) + len(o.removed) }

// HasAdded reports whether (from,to) is net-added.
func (o *Overlay) HasAdded(from, to uint32) bool {
	_, ok := slices.BinarySearch(o.added, EdgeKey(from, to))
	return ok
}

// HasRemoved reports whether (from,to) is net-removed.
func (o *Overlay) HasRemoved(from, to uint32) bool {
	_, ok := slices.BinarySearch(o.removed, EdgeKey(from, to))
	return ok
}

// Added returns the keys of the net-added edges, sorted. The slice is
// shared; callers must not mutate it.
func (o *Overlay) Added() []uint64 { return o.added }

// Removed returns the keys of the net-removed edges, sorted. The slice is
// shared; callers must not mutate it.
func (o *Overlay) Removed() []uint64 { return o.removed }

// AddedSucc returns the keys of the net-added edges out of u, sorted: the
// successor is the key's low word. Shared like Added.
func (o *Overlay) AddedSucc(u uint32) []uint64 { return keysFrom(o.added, u) }

// RemovedSucc returns the keys of the net-removed edges out of u, sorted
// like the base graph's Succ(u), which holds every one of them.
func (o *Overlay) RemovedSucc(u uint32) []uint64 { return keysFrom(o.removed, u) }

// keysFrom returns the sub-run of keys with source u: the key range
// [u<<32, (u+1)<<32).
func keysFrom(keys []uint64, u uint32) []uint64 {
	lo, _ := slices.BinarySearch(keys, EdgeKey(u, 0))
	hi := lo
	for hi < len(keys) && uint32(keys[hi]>>32) == u {
		hi++
	}
	return keys[lo:hi]
}

// Rebase computes the overlay that carries cur's live graph forward over
// a new base. cur is the live overlay (over the old base g0); snap is
// the snapshot of cur that the reindexer folded into the new base g1 =
// g0 \ snap.removed ∪ snap.added. The result expresses the same live
// graph as cur, but relative to g1.
//
// It cannot be computed from cur alone: an op that arrived during the
// rebuild may have *reverted* a change that snap folded into g1 (remove
// e taken into the snapshot, then e re-added while rebuilding — e sits
// in neither of cur's net sets, yet g1 lacks it). Nor does it need either
// graph: being net, the four runs already say where every edge they
// touch stands. An edge cur adds is missing from g1 unless snap added it
// too; an edge snap removed is missing from g1 and live unless cur still
// removes it. Dually for removals.
func Rebase(cur, snap *Overlay) *Overlay {
	return &Overlay{
		merge(cur.added, snap.added, merge(snap.removed, cur.removed, nil)),
		merge(cur.removed, snap.removed, merge(snap.added, cur.added, nil)),
	}
}

package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// oracleFreeze is the comparison-sort Freeze that the counting scatter
// replaced, kept as the reference the new layout must equal array for
// array. It sorts a copy, so the builder is left as it was.
func oracleFreeze(b *Builder) *Digraph {
	es := slices.Clone(b.edges)
	slices.SortFunc(es, cmpEdge)
	es = slices.Compact(es)

	g := &Digraph{n: b.n, m: len(es), numLabels: b.numLabels,
		labelName: b.labelName, vertName: b.vertName, names: &nameIndex{}}
	g.succOff = make([]uint32, b.n+1)
	g.predOff = make([]uint32, b.n+1)
	g.succ = make([]V, len(es))
	g.pred = make([]V, len(es))
	if b.labeled {
		g.succLab = make([]Label, len(es))
		g.predLab = make([]Label, len(es))
	}
	for _, e := range es {
		g.succOff[e.From+1]++
		g.predOff[e.To+1]++
	}
	for v := 0; v < b.n; v++ {
		g.succOff[v+1] += g.succOff[v]
		g.predOff[v+1] += g.predOff[v]
	}
	fill := make([]uint32, b.n)
	for _, e := range es {
		i := g.succOff[e.From] + fill[e.From]
		fill[e.From]++
		g.succ[i] = e.To
		if b.labeled {
			g.succLab[i] = e.Label
		}
	}
	clear(fill)
	for _, e := range es {
		i := g.predOff[e.To] + fill[e.To]
		fill[e.To]++
		g.pred[i] = e.From
		if b.labeled {
			g.predLab[i] = e.Label
		}
	}
	return g
}

// oracleQuotient is the Builder-based condensation Quotient replaced:
// every cross-class edge appended to a fresh builder, then oracleFreeze.
func oracleQuotient(g *Digraph, class []uint32, count int) *Digraph {
	b := NewBuilder(count)
	if g.Labeled() {
		b = NewLabeledBuilder(count)
		b.ReserveLabels(g.Labels())
	}
	g.Edges(func(e Edge) bool {
		if cu, cv := class[e.From], class[e.To]; cu != cv {
			if g.Labeled() {
				b.AddLabeledEdge(cu, cv, e.Label)
			} else {
				b.AddEdge(cu, cv)
			}
		}
		return true
	})
	return oracleFreeze(b)
}

// sameCSR fails t unless got and want agree on every CSR array, on N, M,
// Labels and Labeled, and on their name tables (nil-ness included).
func sameCSR(t *testing.T, got, want *Digraph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Labels() != want.Labels() ||
		got.Labeled() != want.Labeled() {
		t.Fatalf("shape: got n=%d m=%d labels=%d labeled=%v, want n=%d m=%d labels=%d labeled=%v",
			got.N(), got.M(), got.Labels(), got.Labeled(), want.N(), want.M(), want.Labels(), want.Labeled())
	}
	for _, a := range []struct {
		name      string
		got, want []uint32
	}{{"succOff", got.succOff, want.succOff}, {"succ", got.succ, want.succ},
		{"predOff", got.predOff, want.predOff}, {"pred", got.pred, want.pred}} {
		if !slices.Equal(a.got, a.want) {
			t.Fatalf("%s: got %v, want %v", a.name, a.got, a.want)
		}
	}
	if !slices.Equal(got.succLab, want.succLab) || (got.succLab == nil) != (want.succLab == nil) ||
		!slices.Equal(got.predLab, want.predLab) || (got.predLab == nil) != (want.predLab == nil) {
		t.Fatalf("labels: got %v/%v, want %v/%v", got.succLab, got.predLab, want.succLab, want.predLab)
	}
	if !slices.Equal(got.labelName, want.labelName) || (got.labelName == nil) != (want.labelName == nil) ||
		!slices.Equal(got.vertName, want.vertName) || (got.vertName == nil) != (want.vertName == nil) {
		t.Fatalf("names: got %q/%q, want %q/%q", got.labelName, got.vertName, want.labelName, want.vertName)
	}
}

// randomBuilder draws a builder: labeled or not, with duplicate edges,
// self-loops, cycles, isolated vertices (n exceeds every endpoint drawn),
// m=0 now and then, sorted or shuffled input, and sometimes a reserved
// label universe larger than the labels in use.
func randomBuilder(rng *rand.Rand) *Builder {
	n := rng.Intn(40)
	b := NewBuilder(n)
	labels := 0
	if rng.Intn(2) == 0 {
		labels = 1 + rng.Intn(5)
		b = NewLabeledBuilder(n)
		if rng.Intn(3) == 0 {
			b.ReserveLabels(labels + 1 + rng.Intn(8))
		}
	}
	if n == 0 {
		return b
	}
	span := 1 + rng.Intn(n) // endpoints below span; the rest stay isolated
	m := rng.Intn(4 * n)
	if rng.Intn(8) == 0 {
		m = 0
	}
	for i := 0; i < m; i++ {
		u, v := V(rng.Intn(span)), V(rng.Intn(span))
		if labels > 0 {
			b.AddLabeledEdge(u, v, Label(rng.Intn(labels)))
		} else {
			b.AddEdge(u, v)
		}
		if rng.Intn(5) == 0 { // a duplicate
			b.edges = append(b.edges, b.edges[len(b.edges)-1])
		}
	}
	if rng.Intn(2) == 0 {
		slices.SortFunc(b.edges, cmpEdge)
	}
	return b
}

func TestFreezeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 2000; iter++ {
		b := randomBuilder(rng)
		want := oracleFreeze(b)
		got, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, got, want)
	}
	// Names ride along untouched.
	b := NewBuilder(0)
	b.AddNamedEdge("a", "knows", "b")
	b.AddNamedEdge("b", "likes", "a")
	sameCSR(t, b.MustFreeze(), oracleFreeze(b))
}

func TestQuotientMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for iter := 0; iter < 2000; iter++ {
		g := randomBuilder(rng).MustFreeze()
		count := g.N()
		if count > 0 && rng.Intn(4) != 0 {
			count = 1 + rng.Intn(g.N())
		}
		class := make([]uint32, g.N())
		for v := range class {
			if count == g.N() {
				class[v] = uint32(v) // the identity: no edge dropped
			} else {
				class[v] = uint32(rng.Intn(count))
			}
		}
		want := oracleQuotient(g, class, count)
		for _, workers := range []int{1, 2} {
			sameCSR(t, Quotient(g, class, count, workers), want)
		}
	}
}

// TestFreezeOfSortedListSortsNoRow pins the already-ordered case as a
// linear scan: a 4·10⁵-edge list loaded from a frozen graph (what Mutate,
// Patched and a sorted graph.Read hand to Freeze) sorts no row at all.
func TestFreezeOfSortedListSortsNoRow(t *testing.T) {
	g := randomEdges(100_000, 400_000, 5)
	b := Mutate(g)
	got, sorts, err := b.freeze()
	if err != nil || sorts != 0 {
		t.Fatalf("freeze of a sorted list: %d rows sorted, err %v", sorts, err)
	}
	sameCSR(t, got, g)
	slices.Reverse(b.edges)
	if _, sorts, _ := b.freeze(); sorts == 0 {
		t.Fatal("the counter does not count: a reversed list sorted no row")
	}
}

// FuzzFreeze decodes the input as a vertex count, a labeled flag and a
// list of (from, to, label) byte triples, and requires Freeze to equal the
// comparison-sort oracle, and Quotient by v mod 3 to equal its
// Builder-based oracle.
func FuzzFreeze(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 1, 2, 0, 2, 0, 0})
	f.Add([]byte{3, 1, 0, 0, 1, 0, 0, 1, 2, 1, 3, 2, 1, 0})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n, labeled := int(in[0]), in[1]&1 == 1
		b := NewBuilder(n)
		if labeled {
			b = NewLabeledBuilder(n)
		}
		for in = in[2:]; len(in) >= 3; in = in[3:] {
			if labeled {
				b.AddLabeledEdge(V(in[0]), V(in[1]), Label(in[2]%MaxLabels))
			} else {
				b.AddEdge(V(in[0]), V(in[1]))
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, g, oracleFreeze(b))
		class := make([]uint32, g.N())
		for v := range class {
			class[v] = uint32(v % 3)
		}
		count := min(g.N(), 3)
		sameCSR(t, Quotient(g, class, count, 2), oracleQuotient(g, class, count))
	})
}

package reach_test

import (
	"fmt"

	reach "repro"
)

// ExampleBuild indexes the paper's Figure 1(a) plain graph and answers
// the §2.1 running-example query.
func ExampleBuild() {
	g := reach.Fig1Plain()
	ix, err := reach.Build(reach.KindBFL, g, reach.Options{})
	if err != nil {
		panic(err)
	}
	a, _ := g.VertexByName("A")
	t, _ := g.VertexByName("G")
	fmt.Println(ix.Reach(a, t))
	// Output: true
}

// ExampleNewDB routes the paper's three constraint classes to their
// indexes on the Figure 1(b) labeled graph.
func ExampleNewDB() {
	db, err := reach.NewDB(reach.Fig1Labeled(), reach.DBConfig{})
	if err != nil {
		panic(err)
	}
	g := db.Graph()
	a, _ := g.VertexByName("A")
	t, _ := g.VertexByName("G")
	l, _ := g.VertexByName("L")
	b, _ := g.VertexByName("B")

	alternation, _ := db.Query(a, t, "(friendOf|follows)*")    // LCR index
	concatenation, _ := db.Query(l, b, "(worksFor.friendOf)*") // RLC index
	general, _ := db.Query(a, t, "friendOf.friendOf.worksFor") // product search
	fmt.Println(alternation, concatenation, general)
	// Output: false true true
}

// ExampleDB_ReachPath recovers the concrete witness path (A, D, H, G) the
// paper names for Qr(A, G).
func ExampleDB_ReachPath() {
	db, _ := reach.NewDB(reach.Fig1Plain(), reach.DBConfig{Plain: reach.KindPathTree})
	g := db.Graph()
	a, _ := g.VertexByName("A")
	t, _ := g.VertexByName("G")
	path, _ := db.ReachPath(a, t)
	for _, v := range path {
		fmt.Print(g.VertexName(v), " ")
	}
	fmt.Println()
	// Output: A D H G
}

// ExampleBuildConstraint builds a dedicated index for one fixed
// non-indexable constraint (§5's general-fragment challenge).
func ExampleBuildConstraint() {
	g := reach.Fig1Labeled()
	ix, err := reach.BuildConstraint(g, "follows.(worksFor)+")
	if err != nil {
		panic(err)
	}
	a, _ := g.VertexByName("A")
	m, _ := g.VertexByName("M")
	fmt.Println(ix.Reach(a, m))
	// Output: true
}

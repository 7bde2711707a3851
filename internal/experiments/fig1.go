package experiments

import (
	"fmt"
	"io"

	reach "repro"
	"repro/internal/labelset"
	"repro/internal/lcrgtc"
	"repro/internal/survey"
	"repro/internal/tc"
)

// Fig1 replays every worked example the paper states on its Figure 1
// running example and reports the expected-vs-computed answer for each.
// A mismatch panics: these are the reproduction's ground-truth anchors.
func Fig1(w io.Writer) {
	plain := reach.Fig1Plain()
	labeled := reach.Fig1Labeled()
	id := func(name string) reach.V {
		v, ok := labeled.VertexByName(name)
		if !ok {
			panic("fig1: missing vertex " + name)
		}
		return v
	}
	db, err := reach.NewDB(labeled, reach.DBConfig{})
	if err != nil {
		panic(err)
	}
	plainDB, err := reach.NewDB(plain, reach.DBConfig{Plain: survey.KindTreeCover})
	if err != nil {
		panic(err)
	}
	gtc := lcrgtc.New(labeled)

	t := NewTable("Figure 1 — the paper's worked examples", "claim", "paper", "computed")
	check := func(claim string, want, got interface{}) {
		t.Row(claim, want, got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			panic(fmt.Sprintf("fig1: %q: want %v, got %v", claim, want, got))
		}
	}

	// §2.1: Qr(A, G) = true via (A, D, H, G).
	reachAG, _ := plainDB.Reach(id("A"), id("G"))
	check("Qr(A,G) [§2.1]", true, reachAG)
	// §2.2: Qr(A, G, (friendOf ∪ follows)*) = false.
	got, _ := db.Query(id("A"), id("G"), "(friendOf|follows)*")
	check("Qr(A,G,(friendOf∪follows)*) [§2.2]", false, got)
	// §4.1: SPLS(L→M) = {worksFor}.
	check("SPLS(L,M) [§4.1]", "{worksFor}", splsString(gtc, labeled, id("L"), id("M")))
	// §4.1: SPLS(A→L) = {follows}.
	check("SPLS(A,L) [§4.1]", "{follows}", splsString(gtc, labeled, id("A"), id("L")))
	// §4.1: SPLS(A→M) = {follows, worksFor}.
	check("SPLS(A,M) [§4.1]", "{follows,worksFor}", splsString(gtc, labeled, id("A"), id("M")))
	// §4.1.2: the Dijkstra-like search settles p3 = {worksFor} for L→H.
	lh := gtc.SPLS(id("L"), id("H"))
	check("SPLS(L,H) contains {worksFor} (p3 beats p4) [§4.1.2]",
		true, lh != nil && lh.Has(labelset.Of(2)))
	// §4.2: MR of the L→B path is (worksFor, friendOf) and the query holds.
	check("Qr(L,B,(worksFor·friendOf)*) [§4.2]", true,
		tc.RLCReach(labeled, id("L"), id("B"), []reach.Label{2, 0}, true))
	rlcGot, _ := db.Query(id("L"), id("B"), "(worksFor.friendOf)*")
	check("RLC index agrees [§4.2]", true, rlcGot)
	t.Write(w)
}

func splsString(gtc *lcrgtc.Index, g *reach.Graph, s, t reach.V) string {
	c := gtc.SPLS(s, t)
	if c == nil {
		return "(unreachable)"
	}
	if c.Len() != 1 {
		return fmt.Sprintf("(%d minimal sets)", c.Len())
	}
	return c.Sets()[0].String(g)
}

// Package survey registers the twelve Table 1 kinds no server is asked
// for. A program that imports it (`import _ "repro/internal/survey"` is
// enough) can build them with reach.Build and DBConfig.Plain, through the
// root's BuildCtx, and reach.Kinds lists them; a program that does not
// links none of their packages. BuildDynamic serves the update
// experiments.
package survey

import (
	"fmt"

	reach "repro"
	"repro/internal/core"
	"repro/internal/dagger"
	"repro/internal/dbl"
	"repro/internal/duallabel"
	"repro/internal/gripp"
	"repro/internal/oreach"
	"repro/internal/pathhop"
	"repro/internal/pll"
	"repro/internal/sspi"
	"repro/internal/threehop"
	"repro/internal/treecover"
	"repro/internal/twohop"
)

// The survey-only plain kinds, grouped by framework as in Table 1.
const (
	// Tree-cover framework (§3.1).
	KindTreeCover reach.Kind = "treecover" // Agrawal et al. [2], complete
	KindTreeSSPI  reach.Kind = "sspi"      // Tree+SSPI [9], partial
	KindDualLabel reach.Kind = "duallabel" // dual labeling [17], complete
	KindGRIPP     reach.Kind = "gripp"     // GRIPP [43], partial, general input
	KindDAGGER    reach.Kind = "dagger"    // DAGGER [51], partial, dynamic

	// 2-hop framework (§3.2).
	KindTwoHop   reach.Kind = "2hop"    // Cohen et al. [14], complete, general
	KindThreeHop reach.Kind = "3hop"    // 3-hop [26], complete
	KindPathHop  reach.Kind = "pathhop" // path-hop [8], complete
	KindTFL      reach.Kind = "tfl"     // TF-label-style topo order [13]
	KindDBL      reach.Kind = "dbl"     // DBL [29], partial, insert-only
	KindOReach   reach.Kind = "oreach"  // O'Reach [18], partial
	KindHL       reach.Kind = "hl"      // hierarchical labeling [25]
)

// kinds are the survey's rows of Table 1.
var kinds = []core.PlainKind{
	{Kind: string(KindTreeCover), Name: "TreeCover", Framework: "Tree cover", Input: "DAG", Dynamic: "No", Lift: true,
		Build: func(a core.BuildArgs) core.Index { return treecover.New(a.G) }},
	{Kind: string(KindTreeSSPI), Name: "Tree+SSPI", Framework: "Tree cover", Input: "DAG", Dynamic: "No", Lift: true,
		Build: func(a core.BuildArgs) core.Index { return sspi.New(a.G) }},
	{Kind: string(KindDualLabel), Name: "Dual-Labeling", Framework: "Tree cover", Input: "DAG", Dynamic: "No", Lift: true,
		Build: func(a core.BuildArgs) core.Index { return duallabel.New(a.G) }},
	{Kind: string(KindGRIPP), Name: "GRIPP", Framework: "Tree cover", Input: "General", Dynamic: "No",
		Build: func(a core.BuildArgs) core.Index { return gripp.New(a.G) }},
	{Kind: string(KindDAGGER), Name: "DAGGER", Framework: "Tree cover", Input: "DAG", Dynamic: "Yes", Lift: true,
		Build: func(a core.BuildArgs) core.Index { return dagger.New(a.G, dagger.Options{K: a.K, Seed: a.Seed}) }},
	{Kind: string(KindTwoHop), Name: "2-Hop", Framework: "2-Hop", Input: "General", Dynamic: "No",
		Build: func(a core.BuildArgs) core.Index { return twohop.NewChecked(a.G, a.Check) }},
	{Kind: string(KindThreeHop), Name: "3-Hop", Framework: "2-Hop", Input: "DAG", Dynamic: "No", Lift: true,
		Build: func(a core.BuildArgs) core.Index { return threehop.NewChecked(a.G, a.Check) }},
	{Kind: string(KindPathHop), Name: "Path-Hop", Framework: "2-Hop", Input: "DAG", Dynamic: "No", Lift: true,
		Build: func(a core.BuildArgs) core.Index { return pathhop.New(a.G) }},
	{Kind: string(KindTFL), Name: "TFL", Framework: "2-Hop", Input: "DAG", Dynamic: "No", Lift: true,
		Build: func(a core.BuildArgs) core.Index {
			return pll.New(a.G, pll.Options{Order: pll.OrderTopological, Check: a.Check})
		}},
	{Kind: string(KindDBL), Name: "DBL", Framework: "2-Hop", Input: "General", Dynamic: "Insert-only", Parallel: true,
		Build: func(a core.BuildArgs) core.Index {
			return dbl.New(a.G, dbl.Options{K: a.K, Bits: a.Bits, Seed: a.Seed, Workers: a.Workers})
		}},
	{Kind: string(KindOReach), Name: "O'Reach", Framework: "2-Hop", Input: "DAG", Dynamic: "No", Lift: true, Parallel: true,
		Build: func(a core.BuildArgs) core.Index { return oreach.New(a.G, oreach.Options{K: a.K, Workers: a.Workers}) }},
	{Kind: string(KindHL), Name: "HL", Framework: "Hierarchy", Input: "DAG", Dynamic: "No", Lift: true,
		Build: func(a core.BuildArgs) core.Index {
			return pll.New(a.G, pll.Options{Order: pll.OrderDegreeProduct, Name: "HL", Check: a.Check})
		}},
}

func init() { core.RegisterPlain(kinds...) }

// DynamicIndex supports edge insertions and deletions.
type DynamicIndex = core.Dynamic

// BuildDynamic constructs one of Table 1's dynamic kinds (TOL, DAGGER,
// DBL) over g as given, with no SCC adapter: the DAG-only DAGGER needs a
// DAG, and updates that keep it one.
func BuildDynamic(k reach.Kind, g *reach.Graph, opt reach.Options) (ix DynamicIndex, err error) {
	if g == nil || opt.K < 0 || opt.Bits < 0 || opt.Workers < 0 {
		return nil, fmt.Errorf("%w: BuildDynamic(%q) needs a graph and non-negative K, Bits and Workers", reach.ErrBadOptions, k)
	}
	if row, _ := core.Plain(string(k)); row.Dynamic == "Yes" || row.Dynamic == "Insert-only" {
		defer core.Recover(&err)
		return row.Build(core.BuildArgs{G: g, K: opt.K, Bits: opt.Bits, Seed: opt.Seed, Workers: opt.Workers}).(DynamicIndex), nil
	}
	return nil, fmt.Errorf("survey: %q is not a dynamic index kind", k)
}

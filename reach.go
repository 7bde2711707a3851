// Package reach is a library of reachability indexes on graphs,
// reproducing the systems surveyed in "An Overview of Reachability Indexes
// on Graphs" (Zhang, Bonifati, Özsu; SIGMOD 2023).
//
// It answers three query classes over directed graphs:
//
//   - plain reachability Qr(s, t) — §2.1 — via 20+ indexes spanning the
//     tree-cover, 2-hop, and approximate-transitive-closure frameworks
//     (Table 1 of the paper);
//   - alternation-constrained (LCR) reachability Qr(s, t, (l1∪l2∪...)*) —
//     §4.1 — via the GTC, landmark, tree-based and 2-hop LCR indexes
//     (Table 2);
//   - concatenation-constrained (RLC) reachability Qr(s, t, (l1·l2·...)*)
//     — §4.2 — via the RLC index.
//
// The DB type routes an arbitrary path-constraint expression to the right
// index (or to product-automaton search when the constraint falls outside
// both indexable fragments, per the paper's §5 observation that no index
// covers full regular path queries).
//
// Quick start:
//
//	g := reach.Fig1Plain()
//	ix, _ := reach.Build(reach.KindBFL, g, reach.Options{})
//	ok := ix.Reach(s, t)
//
// All indexes validate against exact oracles in this repository's test
// suite; see DESIGN.md for the paper-to-package mapping.
package reach

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bfl"
	"repro/internal/core"
	"repro/internal/feline"
	"repro/internal/ferrari"
	"repro/internal/grail"
	"repro/internal/graph"
	"repro/internal/ip"
	"repro/internal/lcrbloom"
	"repro/internal/lcrdecomp"
	"repro/internal/lcrgtc"
	"repro/internal/lcrlandmark"
	"repro/internal/lcrtree"
	"repro/internal/obs"
	"repro/internal/p2h"
	"repro/internal/par"
	"repro/internal/pathtree"
	"repro/internal/pll"
	"repro/internal/preach"
	"repro/internal/rlc"
	"repro/internal/rpqindex"
	"repro/internal/scc"
	"repro/internal/tol"
)

// Re-exported fundamental types.
type (
	// Graph is an immutable directed graph (optionally edge-labeled).
	Graph = graph.Digraph
	// V is a vertex id.
	V = graph.V
	// Label is an edge-label id.
	Label = graph.Label
	// Index answers plain reachability queries.
	Index = core.Index
	// PartialIndex exposes lookup-only answers (TryReach).
	PartialIndex = core.Partial
	// LCRIndex answers alternation-constrained queries.
	LCRIndex = core.LCRIndex
	// RLCIndex answers concatenation-constrained queries.
	RLCIndex = core.RLCIndex
	// Stats describes an index footprint.
	Stats = core.Stats
	// PreparedGraph memoizes per-graph preprocessing (SCC condensation)
	// shared across index builds over the same graph; see Prepare.
	PreparedGraph = core.Prepared
)

// Graph constructors re-exported from the internal graph package.
var (
	// NewBuilder returns a builder for a plain digraph with n vertices.
	NewBuilder = graph.NewBuilder
	// NewLabeledBuilder returns a builder for an edge-labeled digraph.
	NewLabeledBuilder = graph.NewLabeledBuilder
	// ReadGraph parses the edge-list exchange format under DefaultLimits.
	ReadGraph = graph.Read
	// WriteGraph serializes a graph in the edge-list exchange format.
	WriteGraph = graph.Write
	// LoadGraphSnapshot page-maps a graph CSR snapshot (written with
	// Graph.WriteSnapshot) as a zero-copy Graph, so a warm start skips
	// edge-list parsing and Freeze entirely. Where mmap is unavailable
	// the file is read into memory instead.
	LoadGraphSnapshot = graph.LoadSnapshot
	// Fig1Plain builds the paper's Figure 1(a) plain graph.
	Fig1Plain = graph.Fig1Plain
	// Fig1Labeled builds the paper's Figure 1(b) edge-labeled graph.
	Fig1Labeled = graph.Fig1Labeled
)

// Prepare returns a preprocessing memo for g: pass it as Options.Prepared
// to every Build over the same graph and the SCC condensation every
// DAG-only technique needs (§3.1) is computed exactly once and shared.
// The memo is lazy (a graph whose indexes all accept general input never
// condenses) and safe for concurrent builds.
func Prepare(g *Graph) *PreparedGraph { return core.NewPrepared(g) }

// Kind names a plain reachability indexing technique (a Table 1 row).
type Kind string

// The plain kinds the root serves, grouped by framework as in Table 1.
// The other twelve rows of the table are internal/survey's; a program
// that imports it can build them too.
const (
	// Tree-cover framework (§3.1).
	KindPathTree Kind = "pathtree" // path-tree family [24,27], complete
	KindGRAIL    Kind = "grail"    // GRAIL [50], partial
	KindFerrari  Kind = "ferrari"  // FERRARI [40], partial

	// 2-hop framework (§3.2).
	KindDL  Kind = "dl"  // distribution labeling [25]
	KindPLL Kind = "pll" // pruned landmark labeling [49]
	KindTOL Kind = "tol" // total-order labeling [55], dynamic

	// Approximate transitive closure (§3.3).
	KindIP  Kind = "ip"  // IP label [46,47], partial
	KindBFL Kind = "bfl" // BFL [41], partial

	// Other techniques (§3.4).
	KindFeline Kind = "feline" // FELINE [45], partial
	KindPReaCH Kind = "preach" // PReaCH [31], partial
)

// servingKinds are the root's rows of Table 1.
var servingKinds = []core.PlainKind{
	{Kind: string(KindPathTree), Name: "Path-Tree", Framework: "Tree cover", Input: "DAG", Dynamic: "No", Serves: true, Lift: true,
		Build: func(a core.BuildArgs) Index { return pathtree.New(a.G) }},
	{Kind: string(KindGRAIL), Name: "GRAIL", Framework: "Tree cover", Input: "DAG", Dynamic: "No", Serves: true, Lift: true, Parallel: true,
		Build: func(a core.BuildArgs) Index {
			return grail.New(a.G, grail.Options{K: a.K, Seed: a.Seed, Workers: a.Workers})
		}},
	{Kind: string(KindFerrari), Name: "FERRARI", Framework: "Tree cover", Input: "DAG", Dynamic: "No", Serves: true, Lift: true, Parallel: true,
		Build: func(a core.BuildArgs) Index { return ferrari.New(a.G, ferrari.Options{K: a.K, Workers: a.Workers}) }},
	{Kind: string(KindDL), Name: "DL", Framework: "2-Hop", Input: "General", Dynamic: "No", Serves: true, Snapshot: "pll",
		Build: func(a core.BuildArgs) Index {
			return pll.New(a.G, pll.Options{Order: pll.OrderDegree, Name: "DL", Check: a.Check})
		}},
	{Kind: string(KindPLL), Name: "PLL", Framework: "2-Hop", Input: "General", Dynamic: "No", Serves: true, Snapshot: "pll",
		Build: func(a core.BuildArgs) Index { return pll.New(a.G, pll.Options{Order: pll.OrderDegree, Check: a.Check}) }},
	{Kind: string(KindTOL), Name: "TOL", Framework: "2-Hop", Input: "DAG", Dynamic: "Yes", Serves: true,
		Build: func(a core.BuildArgs) Index { return tol.NewChecked(a.G, a.Check) }},
	{Kind: string(KindIP), Name: "IP", Framework: "Approximate TC", Input: "DAG", Dynamic: "Partial", Serves: true, Lift: true, Parallel: true,
		Build: func(a core.BuildArgs) Index { return ip.New(a.G, ip.Options{K: a.K, Seed: a.Seed, Workers: a.Workers}) }},
	// BFL reads the condensation's Tarjan intervals, not only its DAG.
	{Kind: string(KindBFL), Name: "BFL", Framework: "Approximate TC", Input: "DAG", Dynamic: "No", Serves: true, Lift: true, Parallel: true, Snapshot: "bfl",
		Build: func(a core.BuildArgs) Index {
			return bfl.New(a.Cond, bfl.Options{Seed: a.Seed, Spans: a.Spans, Workers: a.Workers})
		}},
	{Kind: string(KindFeline), Name: "FELINE", Framework: "Coordinates", Input: "DAG", Dynamic: "No", Serves: true, Lift: true,
		Build: func(a core.BuildArgs) Index { return feline.New(a.G) }},
	{Kind: string(KindPReaCH), Name: "PReaCH", Framework: "Pruned search", Input: "DAG", Dynamic: "No", Serves: true, Lift: true,
		Build: func(a core.BuildArgs) Index { return preach.New(a.G) }},
}

func init() {
	core.RegisterPlain(servingKinds...)
	core.LCRKinds = lcrKinds
}

// Kinds returns every plain index kind the program links, sorted: the
// root's, and internal/survey's when the program imports it.
func Kinds() []Kind {
	var ks []Kind
	for _, r := range core.PlainKinds() {
		ks = append(ks, Kind(r.Kind))
	}
	return ks
}

// Options bundles the tunables shared across index families. Zero values
// select each technique's defaults.
type Options struct {
	// K: interval budget (GRAIL/FERRARI/DAGGER), sketch size (IP),
	// supportive vertices (O'Reach), landmarks (DBL, LCR landmark index).
	K int
	// Bits: Bloom width for DBL and LCR-Bloom; BFL's widths are fixed by
	// its 64-byte record.
	Bits int
	// Seed drives every randomized structure.
	Seed int64
	// MaxSeq is the RLC index's maximum indexed concatenation length κ.
	MaxSeq int
	// Workers caps the goroutines used by the parallel build phases — the
	// §5 "parallel computation of indexes" direction, reaching GRAIL's K
	// random labelings, FERRARI's interval passes, IP's sketch passes,
	// O'Reach's supportive-vertex BFSs, BFL's Bloom-filter passes, DBL's
	// landmark BFSs, and the LCR landmark index's per-landmark GTCs.
	// 0 selects GOMAXPROCS, 1 forces the serial path, n > 1 caps the pool
	// at n. Guarantee: for a fixed Seed the built index answers
	// identically at any worker count (see TestParallelBuildDeterminism).
	Workers int
	// Prepared, when non-nil, supplies the shared preprocessing memo of
	// Prepare(g): every DAG-only build drawing from it reuses one SCC
	// condensation instead of recomputing it per kind, and the build's
	// "scc/condense" span records the memo hit as its `cached` attribute.
	// The memo must be bound to the graph being built over (ErrBadOptions
	// otherwise). NewDB threads one through all of its builds
	// automatically; set this only when calling Build* directly for
	// several kinds over one graph. Nil keeps the per-build condensation.
	Prepared *PreparedGraph
	// Spans, when non-nil, receives named build-phase durations from
	// Build/BuildLCR/BuildRLC (SCC condensation, order computation, filter
	// passes, ...); see OBSERVABILITY.md for the span-name schema. Nil
	// disables phase recording at zero cost.
	Spans *obs.Spans
}

// Build constructs the requested plain index over g. DAG-only techniques
// are lifted to general graphs through SCC condensation automatically
// (§3.1); techniques accepting general graphs run on g directly. With
// Options.Spans set, construction phases are recorded as named spans.
//
// Invalid options yield ErrBadOptions; a panic inside an index
// implementation is contained and reported as ErrIndexPanic.
func Build(k Kind, g *Graph, opt Options) (Index, error) {
	return BuildCtx(context.Background(), k, g, opt)
}

// BuildCtx is Build under a context: the expensive builders poll ctx at
// cooperative checkpoints and a canceled context abandons the
// construction with ErrBuildCanceled after a bounded amount of extra
// work. A nil or never-canceled context costs nothing on the build path.
func BuildCtx(ctx context.Context, k Kind, g *Graph, opt Options) (ix Index, err error) {
	if err := checkBuild(ctx, g, opt); err != nil {
		return nil, err
	}
	defer core.Recover(&err)
	row, ok := core.Plain(string(k))
	if !ok {
		return nil, fmt.Errorf("reach: unknown index kind %q", k)
	}
	a := core.BuildArgs{G: g, K: opt.K, Bits: opt.Bits, Seed: opt.Seed, Workers: opt.Workers,
		Spans: opt.Spans, Check: core.NewCheck(ctx, "build/"+string(k))}
	w := par.Resolve(opt.Workers)
	// buildWorkers is the "index/build" span's `workers` attribute: w for
	// builders with a parallel phase, 0 for serial ones.
	buildWorkers := 0
	if row.Parallel {
		buildWorkers = w
	}
	if row.Lift {
		return core.ForGeneralPrepared(g, opt.Spans, w, buildWorkers, opt.Prepared, func(c *scc.Condensation) Index {
			a.G, a.Cond = c.DAG, c
			return row.Build(a)
		}), nil
	}
	end := opt.Spans.StartN("index/build", buildWorkers)
	ix = row.Build(a)
	end()
	return ix, nil
}

// LCRKind names an alternation-constrained indexing technique (Table 2).
type LCRKind string

// LCR index kinds.
const (
	LCRZouGTC   LCRKind = "zougtc"   // Zou et al. [48,56], complete GTC
	LCRLandmark LCRKind = "landmark" // Valstar et al. [44], partial
	LCRP2H      LCRKind = "p2h"      // P2H+ [33], complete 2-hop
	LCRDLCR     LCRKind = "dlcr"     // DLCR [10], complete, dynamic
	LCRJinTree  LCRKind = "jintree"  // Jin et al. [21], tree + partial GTC
	LCRDecomp   LCRKind = "decomp"   // Chen et al. [12], decomposition
	// LCRBloom is this repository's prototype of the paper's §5 open
	// challenge: a partial LCR index without false negatives (labeled
	// Bloom-filter families + filter-guided constrained BFS).
	LCRBloom LCRKind = "lcrbloom"
)

// lcrKinds is Table 2: every LCR kind, in the table's order.
var lcrKinds = []core.LCRKind{
	{Kind: string(LCRZouGTC), Name: "Zou-GTC", Framework: "GTC", Input: "General", Dynamic: "Yes (rebuild)",
		Build: func(a core.BuildArgs) LCRIndex { return lcrgtc.NewChecked(a.G, a.Check) }},
	{Kind: string(LCRLandmark), Name: "Landmark", Framework: "GTC", Input: "General", Dynamic: "No",
		Build: func(a core.BuildArgs) LCRIndex {
			return lcrlandmark.New(a.G, lcrlandmark.Options{K: a.K, Workers: a.Workers})
		}},
	{Kind: string(LCRP2H), Name: "P2H+", Framework: "2-Hop", Input: "General", Dynamic: "No",
		Build: func(a core.BuildArgs) LCRIndex { return p2h.NewChecked(a.G, a.Check) }},
	{Kind: string(LCRDLCR), Name: "DLCR", Framework: "2-Hop", Input: "General", Dynamic: "Yes",
		Build: func(a core.BuildArgs) LCRIndex { return p2h.NewDynamicChecked(a.G, a.Check) }},
	{Kind: string(LCRJinTree), Name: "Jin-Tree", Framework: "Tree cover", Input: "General", Dynamic: "No",
		Build: func(a core.BuildArgs) LCRIndex { return lcrtree.New(a.G) }},
	{Kind: string(LCRDecomp), Name: "Chen-Decomp", Framework: "Tree cover", Input: "General", Dynamic: "No",
		Build: func(a core.BuildArgs) LCRIndex { return lcrdecomp.New(a.G) }},
	{Kind: string(LCRBloom), Name: "LCR-Bloom", Framework: "Approximate GTC (§5 prototype)", Input: "General", Dynamic: "No",
		Build: func(a core.BuildArgs) LCRIndex {
			return lcrbloom.New(a.G, lcrbloom.Options{Bits: a.Bits, Seed: a.Seed})
		}},
}

// LCRKinds returns every LCR index kind in Table 2's order.
func LCRKinds() []LCRKind {
	var ks []LCRKind
	for _, r := range lcrKinds {
		ks = append(ks, LCRKind(r.Kind))
	}
	return ks
}

// BuildLCR constructs the requested alternation-constraint index. With
// Options.Spans set, construction is recorded as an "lcr/build" span.
func BuildLCR(k LCRKind, g *Graph, opt Options) (LCRIndex, error) {
	return buildLCRCtx(context.Background(), k, g, opt)
}

// buildLCRCtx is BuildLCR under a context (NewDBCtx's); the GTC and 2-hop
// LCR builds (the quadratic ones the survey warns about) poll ctx at
// cooperative checkpoints and abandon with ErrBuildCanceled.
func buildLCRCtx(ctx context.Context, k LCRKind, g *Graph, opt Options) (ix LCRIndex, err error) {
	if err := checkBuild(ctx, g, opt); err != nil {
		return nil, err
	}
	if !g.Labeled() {
		return nil, fmt.Errorf("%w: LCR index %q needs an edge-labeled graph", ErrBadOptions, k)
	}
	defer core.Recover(&err)
	i := slices.IndexFunc(lcrKinds, func(r core.LCRKind) bool { return r.Kind == string(k) })
	if i < 0 {
		return nil, fmt.Errorf("reach: unknown LCR index kind %q", k)
	}
	end := opt.Spans.Start("lcr/build")
	defer end()
	return lcrKinds[i].Build(core.BuildArgs{G: g, K: opt.K, Bits: opt.Bits, Seed: opt.Seed, Workers: opt.Workers,
		Check: core.NewCheck(ctx, "build/lcr/"+string(k))}), nil
}

// BuildRLC constructs the concatenation-constraint (RLC) index. With
// Options.Spans set, construction is recorded as an "rlc/build" span.
func BuildRLC(g *Graph, opt Options) (RLCIndex, error) {
	return buildRLCCtx(context.Background(), g, opt)
}

// buildRLCCtx is BuildRLC under a context (NewDBCtx's): the per-sequence
// phase-product labelings poll ctx and abandon with ErrBuildCanceled.
func buildRLCCtx(ctx context.Context, g *Graph, opt Options) (ix RLCIndex, err error) {
	if err := checkBuild(ctx, g, opt); err != nil {
		return nil, err
	}
	if !g.Labeled() {
		return nil, fmt.Errorf("%w: the RLC index needs an edge-labeled graph", ErrBadOptions)
	}
	defer core.Recover(&err)
	chk := core.NewCheck(ctx, "build/rlc")
	end := opt.Spans.Start("rlc/build")
	defer end()
	return rlc.New(g, rlc.Options{MaxSeq: opt.MaxSeq, Check: chk}), nil
}

// ConstraintIndex answers Qr(s, t, α) for one fixed α by pure lookups —
// the §5 "general path constraints" direction (see internal/rpqindex).
type ConstraintIndex = rpqindex.Index

// BuildConstraint builds a dedicated product-labeling index for the fixed
// path-constraint expression alpha. Any expression of the §2.2 grammar is
// accepted; queries then cost 2-hop lookups instead of product traversal.
func BuildConstraint(g *Graph, alpha string) (ix *ConstraintIndex, err error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadOptions)
	}
	if !g.Labeled() {
		return nil, fmt.Errorf("%w: constraint indexes need an edge-labeled graph", ErrBadOptions)
	}
	defer core.Recover(&err)
	return rpqindex.New(g, alpha)
}

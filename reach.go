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
	"sort"

	"repro/internal/bfl"
	"repro/internal/core"
	"repro/internal/dagger"
	"repro/internal/dbl"
	"repro/internal/duallabel"
	"repro/internal/feline"
	"repro/internal/ferrari"
	"repro/internal/grail"
	"repro/internal/graph"
	"repro/internal/gripp"
	"repro/internal/ip"
	"repro/internal/lcrbloom"
	"repro/internal/lcrdecomp"
	"repro/internal/lcrgtc"
	"repro/internal/lcrlandmark"
	"repro/internal/lcrtree"
	"repro/internal/obs"
	"repro/internal/oreach"
	"repro/internal/p2h"
	"repro/internal/par"
	"repro/internal/pathhop"
	"repro/internal/pathtree"
	"repro/internal/pll"
	"repro/internal/preach"
	"repro/internal/rlc"
	"repro/internal/rpqindex"
	"repro/internal/scc"
	"repro/internal/sspi"
	"repro/internal/threehop"
	"repro/internal/tol"
	"repro/internal/treecover"
	"repro/internal/twohop"
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
	// DynamicIndex supports edge insertions/deletions.
	DynamicIndex = core.Dynamic
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

// Plain index kinds, grouped by framework as in Table 1.
const (
	// Tree-cover framework (§3.1).
	KindTreeCover Kind = "treecover" // Agrawal et al. [2], complete
	KindTreeSSPI  Kind = "sspi"      // Tree+SSPI [9], partial
	KindDualLabel Kind = "duallabel" // dual labeling [17], complete
	KindGRIPP     Kind = "gripp"     // GRIPP [43], partial, general input
	KindPathTree  Kind = "pathtree"  // path-tree family [24,27], complete
	KindGRAIL     Kind = "grail"     // GRAIL [50], partial
	KindFerrari   Kind = "ferrari"   // FERRARI [40], partial
	KindDAGGER    Kind = "dagger"    // DAGGER [51], partial, dynamic

	// 2-hop framework (§3.2).
	KindTwoHop   Kind = "2hop"    // Cohen et al. [14], complete, general
	KindThreeHop Kind = "3hop"    // 3-hop [26], complete
	KindPathHop  Kind = "pathhop" // path-hop [8], complete
	KindTFL      Kind = "tfl"     // TF-label-style topo order [13]
	KindDL       Kind = "dl"      // distribution labeling [25]
	KindPLL      Kind = "pll"     // pruned landmark labeling [49]
	KindTOL      Kind = "tol"     // total-order labeling [55], dynamic
	KindDBL      Kind = "dbl"     // DBL [29], partial, insert-only
	KindOReach   Kind = "oreach"  // O'Reach [18], partial
	KindHL       Kind = "hl"      // hierarchical labeling [25]

	// Approximate transitive closure (§3.3).
	KindIP  Kind = "ip"  // IP label [46,47], partial
	KindBFL Kind = "bfl" // BFL [41], partial

	// Other techniques (§3.4).
	KindFeline Kind = "feline" // FELINE [45], partial
	KindPReaCH Kind = "preach" // PReaCH [31], partial
)

// Kinds returns every plain index kind in a stable order.
func Kinds() []Kind {
	ks := []Kind{
		KindTreeCover, KindTreeSSPI, KindDualLabel, KindGRIPP, KindPathTree,
		KindGRAIL, KindFerrari, KindDAGGER, KindTwoHop, KindThreeHop,
		KindPathHop, KindTFL, KindDL, KindPLL, KindTOL, KindDBL, KindOReach,
		KindHL, KindIP, KindBFL, KindFeline, KindPReaCH,
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
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

// timed runs a direct (non-SCC-lifted) builder under an "index/build"
// span; a nil recorder makes it a plain call.
func timed(spans *obs.Spans, build func() Index) Index {
	end := spans.Start("index/build")
	ix := build()
	end()
	return ix
}

// timedN is timed for builders with a parallel construction phase: the
// span records the resolved worker count as its `workers` attribute.
func timedN(spans *obs.Spans, workers int, build func() Index) Index {
	end := spans.StartN("index/build", workers)
	ix := build()
	end()
	return ix
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
	chk := core.NewCheck(ctx, "build/"+string(k))
	sp := opt.Spans
	w := par.Resolve(opt.Workers)
	// lift condenses g on w workers and builds the DAG index over the
	// condensation's DAG; buildWorkers is w for builders with a parallel
	// phase, 0 for serial ones (the "index/build" span's `workers`
	// attribute).
	lift := func(buildWorkers int, build core.DAGBuilder) (Index, error) {
		return core.ForGeneralPrepared(g, sp, w, buildWorkers, opt.Prepared,
			func(c *scc.Condensation) Index { return build(c.DAG) }), nil
	}
	switch k {
	case KindTreeCover:
		return lift(0, func(d *Graph) Index { return treecover.New(d) })
	case KindTreeSSPI:
		return lift(0, func(d *Graph) Index { return sspi.New(d) })
	case KindDualLabel:
		return lift(0, func(d *Graph) Index { return duallabel.New(d) })
	case KindGRIPP:
		return timed(sp, func() Index { return gripp.New(g) }), nil
	case KindPathTree:
		return lift(0, func(d *Graph) Index { return pathtree.New(d) })
	case KindGRAIL:
		return lift(w, func(d *Graph) Index {
			return grail.New(d, grail.Options{K: opt.K, Seed: opt.Seed, Workers: opt.Workers})
		})
	case KindFerrari:
		return lift(w, func(d *Graph) Index {
			return ferrari.New(d, ferrari.Options{K: opt.K, Workers: opt.Workers})
		})
	case KindDAGGER:
		return lift(0, func(d *Graph) Index {
			return dagger.New(d, dagger.Options{K: opt.K, Seed: opt.Seed})
		})
	case KindTwoHop:
		return timed(sp, func() Index { return twohop.NewChecked(g, chk) }), nil
	case KindThreeHop:
		return lift(0, func(d *Graph) Index { return threehop.NewChecked(d, chk) })
	case KindPathHop:
		return lift(0, func(d *Graph) Index { return pathhop.New(d) })
	case KindTFL:
		return lift(0, func(d *Graph) Index {
			return pll.New(d, pll.Options{Order: pll.OrderTopological, Check: chk})
		})
	case KindDL:
		return timed(sp, func() Index {
			return pll.New(g, pll.Options{Order: pll.OrderDegree, Name: "DL", Check: chk})
		}), nil
	case KindPLL:
		return timed(sp, func() Index {
			return pll.New(g, pll.Options{Order: pll.OrderDegree, Check: chk})
		}), nil
	case KindHL:
		return lift(0, func(d *Graph) Index {
			return pll.New(d, pll.Options{Order: pll.OrderDegreeProduct, Name: "HL", Check: chk})
		})
	case KindTOL:
		return timed(sp, func() Index {
			return tol.NewChecked(g, chk)
		}), nil
	case KindDBL:
		return timedN(sp, w, func() Index {
			return dbl.New(g, dbl.Options{K: opt.K, Bits: opt.Bits, Seed: opt.Seed, Workers: opt.Workers})
		}), nil
	case KindOReach:
		return lift(w, func(d *Graph) Index {
			return oreach.New(d, oreach.Options{K: opt.K, Workers: opt.Workers})
		})
	case KindIP:
		return lift(w, func(d *Graph) Index {
			return ip.New(d, ip.Options{K: opt.K, Seed: opt.Seed, Workers: opt.Workers})
		})
	case KindBFL:
		// BFL reads the condensation's Tarjan intervals, not only its DAG.
		return core.ForGeneralPrepared(g, sp, w, w, opt.Prepared, func(c *scc.Condensation) Index {
			return bfl.New(c, bfl.Options{Seed: opt.Seed, Spans: sp, Workers: opt.Workers})
		}), nil
	case KindFeline:
		return lift(0, func(d *Graph) Index { return feline.New(d) })
	case KindPReaCH:
		return lift(0, func(d *Graph) Index { return preach.New(d) })
	}
	return nil, fmt.Errorf("reach: unknown index kind %q", k)
}

// BuildDynamic constructs a dynamic plain index (TOL, DAGGER, DBL). Note
// the dynamic indexes operate on the graph as given (no SCC adapter): the
// DAG-only DAGGER requires a DAG start, and updates that respect it.
func BuildDynamic(k Kind, g *Graph, opt Options) (ix DynamicIndex, err error) {
	if err := checkBuild(nil, g, opt); err != nil {
		return nil, err
	}
	defer core.Recover(&err)
	switch k {
	case KindTOL:
		return tol.New(g), nil
	case KindDAGGER:
		return dagger.New(g, dagger.Options{K: opt.K, Seed: opt.Seed}), nil
	case KindDBL:
		return dbl.New(g, dbl.Options{K: opt.K, Bits: opt.Bits, Seed: opt.Seed, Workers: opt.Workers}), nil
	}
	return nil, fmt.Errorf("reach: %q is not a dynamic index kind", k)
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

// LCRKinds returns every LCR index kind in a stable order.
func LCRKinds() []LCRKind {
	return []LCRKind{LCRZouGTC, LCRLandmark, LCRP2H, LCRDLCR, LCRJinTree, LCRDecomp, LCRBloom}
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
	chk := core.NewCheck(ctx, "build/lcr/"+string(k))
	end := opt.Spans.Start("lcr/build")
	defer end()
	switch k {
	case LCRZouGTC:
		return lcrgtc.NewChecked(g, chk), nil
	case LCRLandmark:
		return lcrlandmark.New(g, lcrlandmark.Options{K: opt.K, Workers: opt.Workers}), nil
	case LCRP2H:
		return p2h.NewChecked(g, chk), nil
	case LCRDLCR:
		return p2h.NewDynamicChecked(g, chk), nil
	case LCRJinTree:
		return lcrtree.New(g), nil
	case LCRDecomp:
		return lcrdecomp.New(g), nil
	case LCRBloom:
		return lcrbloom.New(g, lcrbloom.Options{Bits: opt.Bits, Seed: opt.Seed}), nil
	}
	return nil, fmt.Errorf("reach: unknown LCR index kind %q", k)
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

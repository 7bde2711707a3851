package advise

// The rule table, distilled from the survey's taxonomy (§6 and Table 1):
// each rule reads the profiles and nominates kinds for its regime. Rules
// nominate, measurement decides — the shortlist exists only to keep the
// measured field small, so every rule errs toward including a kind when
// its regime plausibly applies.
//
// Regimes and their champions:
//
//   - heavy-tailed degrees → degree-ordered pruned 2-hop (PLL, DL, TOL):
//     hub labels stay tiny when a few hubs cover most paths.
//   - deep-and-narrow DAGs → interval/refinement indexes (GRAIL, FERRARI,
//     Feline, PReaCH): interval containment decides most pairs.
//   - tree-like condensations (few non-tree edges) → the tree-cover
//     extensions (dual labeling, path-tree).
//   - negative-heavy workloads → strong negative cuts (IP, BFL, PReaCH):
//     most queries end at the first filter.
//   - small graphs → total-order labels (TOL, PLL); everything is cheap,
//     so take the fastest probes. The quadratic constructions (2hop,
//     3hop, pathhop) stay excluded even here — their build cost buys no
//     probe advantage over TOL/PLL.
//   - everything else → BFL, the survey's robust default, always listed.

// pllMaxN is the largest graph the rules nominate PLL or DL (one build
// under two names) for. On a RandomDAG with m = 4n (2 vCPUs) PLL built in
// 0.68 s at n = 2·10⁴, 3.0 s at 5·10⁴, 8.0 s at 10⁵ and 21.3 s at 2·10⁵,
// and at 10⁶ never inside the default 30 s build box.
const pllMaxN = 100_000

// Candidate is one short-listed kind plus the rule that nominated it;
// measurement fields are filled by the evaluator.
type Candidate struct {
	Kind       string `json:"kind"`
	Reason     string `json:"reason,omitempty"`
	Feasible   bool   `json:"feasible"`
	Error      string `json:"error,omitempty"`
	BuildNS    int64  `json:"build_ns,omitempty"`
	Bytes      int    `json:"bytes,omitempty"`
	OverBudget bool   `json:"over_budget,omitempty"`
	Measurement
}

// Shortlist applies the rule table and returns at most max candidates in
// nomination order (earlier rules are stronger signals).
func Shortlist(gp GraphProfile, wp WorkloadProfile, max int) []Candidate {
	var out []Candidate
	seen := map[string]bool{}
	add := func(kind, reason string) {
		if !seen[kind] {
			seen[kind] = true
			out = append(out, Candidate{Kind: kind, Reason: reason})
		}
	}

	add("bfl", "robust default (approximate-TC filter + fallback)")
	twoHop := gp.N <= pllMaxN

	smallGraph := gp.N <= 4096
	if smallGraph {
		add("tol", "small graph: total-order 2-hop labels are affordable and probe fastest")
		add("pll", "small graph: pruned landmark labels are affordable") // smallGraph implies twoHop
	}

	// Heavy degree tail on either side: degree-ordered 2-hop regimes.
	if twoHop && (gp.InDegree.Skew >= 4 || gp.OutDegree.Skew >= 4) {
		add("pll", "heavy-tailed degrees: hub-ordered pruned 2-hop stays small")
		add("dl", "heavy-tailed degrees: distribution labeling")
	}

	// Deep-and-narrow condensation: interval indexes decide most pairs.
	if gp.Depth >= 4*gp.Width && gp.Depth >= 8 {
		add("grail", "deep-and-narrow DAG: interval containment decides most pairs")
		add("ferrari", "deep-and-narrow DAG: exact+approximate interval mix")
	} else if gp.Depth >= gp.Width {
		add("feline", "depth ≥ width: two-coordinate dominance prunes well")
	}

	// Tree-like condensation: the tree-cover extension regime.
	if gp.NonTreeShare <= 0.2 && gp.CyclicMass < 0.5 {
		add("pathtree", "near-tree condensation: path-tree covers it compactly")
	}

	// Negative-heavy workloads reward strong negative cuts.
	if wp.Plain > 0 && wp.PositiveShare <= 0.25 {
		add("ip", "negative-heavy workload: IP's independent permutations cut negatives")
		add("preach", "negative-heavy workload: pruned-BFS contraction hierarchy")
	}

	// Guarantee a complete-index contender next to the partial ones.
	if twoHop {
		add("pll", "pruned 2-hop contender")
	}

	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

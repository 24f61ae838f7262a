// Package tpp implements the Target Privacy Preserving model of
// Jiang et al., "Target Privacy Preserving for Social Networks"
// (ICDE 2020): protecting a small set of sensitive target links by
// deleting a budget-limited set of non-target protector links so that
// motif-based link prediction can no longer infer the targets.
//
// The front door is the Protector session API: construct one session per
// graph + target set + motif pattern with New and functional options, then
// drive it with Run (context-aware, cancellable) any number of times —
// the session caches the motif index, so repeated runs with different
// budgets, methods or divisions skip the dominant subgraph-enumeration
// cost. Release materialises the released graph for a run's result:
//
//	session, err := tpp.New(g, targets,
//		tpp.WithPattern(motif.Triangle),
//		tpp.WithMethod(tpp.MethodWT),
//		tpp.WithDivision(tpp.DivisionDBD),
//		tpp.WithBudget(10))
//	res, err := session.Run(ctx)
//	released := session.Release(res)
//
// The session is the one way to run the paper's three greedy
// protector-selection algorithms (SGB-Greedy, CT-Greedy, WT-Greedy) and
// their scalable -R variants (Lemma 5 candidate restriction), under either
// the paper's recount cost model or the inverted-index engine. The package
// also exports the TBD and DBD budget division strategies, the RD/RDT
// baselines (which take the caller's RNG), the node-target, Katz and guard
// extensions, and brute-force optima for verifying approximation bounds on
// small instances.
package tpp

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Problem is one TPP instance: a social graph, a motif pattern defining
// what counts as a target subgraph, and the sensitive target links.
type Problem struct {
	// G is the phase-1 graph: the social graph with every target link
	// withheld, so the original graph is G plus the Targets. NewProblem
	// builds it on a copy of the caller's graph; a Protector's Apply
	// mutates it in place.
	G *graph.Graph
	// Pattern is the motif that adversarial link prediction exploits.
	Pattern motif.Pattern
	// Targets is the target link set T ⊆ E. The order is the caller's and
	// is preserved: WT-Greedy satisfies targets in this order, so it
	// encodes protection priority (paper Sec. V-C, "the first target").
	Targets []graph.Edge
}

// NewProblem validates and constructs a Problem. Every target must be an
// existing, distinct edge of g. Target order is preserved. The problem's
// G is a copy of g with the targets removed; g is never mutated.
func NewProblem(g *graph.Graph, pattern motif.Pattern, targets []graph.Edge) (*Problem, error) {
	ts, err := canonicalTargets(g, targets, true)
	if err != nil {
		return nil, err
	}
	g1 := g.Clone()
	for _, t := range ts {
		g1.RemoveEdgeE(t)
	}
	return &Problem{G: g1, Pattern: pattern, Targets: ts}, nil
}

// canonicalTargets canonicalises a target list and checks it against g:
// distinct node pairs of g, each an edge of g when linked is set (g is an
// original graph) and absent from g otherwise (g is a phase-1 graph).
func canonicalTargets(g *graph.Graph, targets []graph.Edge, linked bool) ([]graph.Edge, error) {
	if g == nil {
		return nil, fmt.Errorf("tpp: nil graph")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("tpp: empty target set")
	}
	seen := make(map[graph.Edge]bool, len(targets))
	ts := make([]graph.Edge, 0, len(targets))
	for _, t := range targets {
		if !t.Canonical() {
			t = graph.NewEdge(t.U, t.V)
		}
		switch {
		case linked && !g.HasEdgeE(t):
			return nil, fmt.Errorf("tpp: target %v is not an edge of the graph", t)
		case !linked && (t.U < 0 || int(t.V) >= g.NumNodes() || g.HasEdgeE(t)):
			return nil, fmt.Errorf("tpp: target %v is not an absent node pair of the phase-1 graph", t)
		}
		if seen[t] {
			return nil, fmt.Errorf("tpp: duplicate target %v", t)
		}
		seen[t] = true
		ts = append(ts, t)
	}
	return ts, nil
}

// ProtectedGraph returns the released graph: a copy of the phase-1 graph
// minus the given protectors, which utility metrics and attacks run on.
func (p *Problem) ProtectedGraph(protectors []graph.Edge) *graph.Graph {
	g := p.G.Clone()
	g.RemoveEdges(protectors)
	return g
}

// InitialSimilarity returns s(∅, T): the total number of target subgraphs
// before any protector deletion. It doubles as the dissimilarity constant C
// (the paper requires C ≥ s(∅, T); choosing equality makes f(∅, T) = 0 and
// f(P, T) = number of broken target subgraphs).
func (p *Problem) InitialSimilarity() int {
	total, _ := motif.CountAll(p.G, p.Pattern, p.Targets)
	return total
}

// TargetIndex returns the position of t in the canonical target ordering,
// or -1.
func (p *Problem) TargetIndex(t graph.Edge) int {
	for i, x := range p.Targets {
		if x == t {
			return i
		}
	}
	return -1
}

// Result records the outcome of one protector-selection run.
type Result struct {
	// Method names the algorithm variant, e.g. "SGB-Greedy-R" or
	// "CT-Greedy:TBD".
	Method string
	// Protectors lists the deleted protector links in selection order.
	Protectors []graph.Edge
	// SimilarityTrace[i] is the total similarity s(P_i, T) after deleting
	// the first i protectors; SimilarityTrace[0] = s(∅, T). Its length is
	// len(Protectors)+1.
	SimilarityTrace []int
	// PerTargetFinal holds s(P, t) for every target after all deletions.
	PerTargetFinal []int
	// Elapsed is the total wall-clock selection time (the quantity
	// Figs. 5–6 report).
	Elapsed time.Duration
	// StepElapsed[i] is the cumulative wall-clock time when the i-th
	// protector was committed, so one run yields the whole running-time-
	// versus-budget curve.
	StepElapsed []time.Duration
	// WarmStart reports whether a Protector session served this run from its
	// warm-start engine — replaying and re-verifying the previous run's
	// selection against the incrementally maintained index — instead of a
	// cold greedy run. Warm and cold selections are bit-identical (method
	// name, protectors, similarity trace, per-target finals); the flag is
	// observability only, and timings are the only other thing that differs.
	WarmStart bool
}

// FinalSimilarity returns s(P, T) after all deletions.
func (r *Result) FinalSimilarity() int {
	return r.SimilarityTrace[len(r.SimilarityTrace)-1]
}

// Dissimilarity returns f(P, T) with C = s(∅, T): the number of target
// subgraphs broken by the selected protectors.
func (r *Result) Dissimilarity() int {
	return r.SimilarityTrace[0] - r.FinalSimilarity()
}

// FullProtection reports whether every target subgraph was broken
// (s(P, T) = 0), the paper's "full protection" condition.
func (r *Result) FullProtection() bool { return r.FinalSimilarity() == 0 }

// SimilarityAt returns s(P_k, T) after the first k deletions, clamping k to
// the number of protectors actually selected (greedy may stop early once
// all gains are zero).
func (r *Result) SimilarityAt(k int) int {
	if k >= len(r.SimilarityTrace) {
		k = len(r.SimilarityTrace) - 1
	}
	if k < 0 {
		k = 0
	}
	return r.SimilarityTrace[k]
}

func newResult(method string, initial int) *Result {
	return &Result{Method: method, SimilarityTrace: []int{initial}}
}

func (r *Result) record(p graph.Edge, similarity int, elapsed time.Duration) {
	r.Protectors = append(r.Protectors, p)
	r.SimilarityTrace = append(r.SimilarityTrace, similarity)
	r.StepElapsed = append(r.StepElapsed, elapsed)
}

// ElapsedAt returns the cumulative selection time for the first k
// protectors, clamped like SimilarityAt.
func (r *Result) ElapsedAt(k int) time.Duration {
	if len(r.StepElapsed) == 0 || k <= 0 {
		return 0
	}
	if k > len(r.StepElapsed) {
		k = len(r.StepElapsed)
	}
	return r.StepElapsed[k-1]
}

// NodeTargets returns every link incident to node v — the target set for
// *target node* privacy (paper future work #2): hiding a node's entire
// relationship neighbourhood, e.g. an undercover account. Protecting these
// targets makes every tie of v unpredictable by the chosen motif.
func NodeTargets(g *graph.Graph, v graph.NodeID) []graph.Edge {
	nbrs := g.NeighborsView(v) // consumed before any mutation can occur
	out := make([]graph.Edge, 0, len(nbrs))
	for _, w := range nbrs {
		out = append(out, graph.NewEdge(v, w))
	}
	return out
}

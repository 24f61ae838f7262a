package tpp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
)

// RandomDeletion is the RD baseline (paper Sec. VI-A): delete k links chosen
// uniformly at random from the phase-1 edge set, with no similarity
// computation at all.
func RandomDeletion(p *Problem, k int, rng *rand.Rand) (*Result, error) {
	return randomDeletion(p, k, rng, runEnv{})
}

func randomDeletion(p *Problem, k int, rng *rand.Rand, env runEnv) (*Result, error) {
	// RD selects from the full phase-1 edge set; the index exists only to
	// report the similarity trace (RD computes no gains — that is its
	// point), so the clock starts at the actual selection.
	return randomBaseline(p, k, rng, env, "RD", func(p *Problem, _ *motif.Index) []graph.Edge {
		return p.G.Edges()
	})
}

// RandomDeletionFromTargets is the RDT baseline: delete k links chosen
// uniformly at random from the edges that participate in target subgraphs
// (the W-edge universe), again with no gain computation.
func RandomDeletionFromTargets(p *Problem, k int, rng *rand.Rand) (*Result, error) {
	return randomDeletionFromTargets(p, k, rng, runEnv{})
}

func randomDeletionFromTargets(p *Problem, k int, rng *rand.Rand, env runEnv) (*Result, error) {
	return randomBaseline(p, k, rng, env, "RDT", func(_ *Problem, ix *motif.Index) []graph.Edge {
		return ix.AllTouchedEdges()
	})
}

func randomBaseline(p *Problem, k int, rng *rand.Rand, env runEnv, name string,
	universe func(*Problem, *motif.Index) []graph.Edge) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeBudget, k)
	}
	ix, err := env.index(p)
	if err != nil {
		return nil, err
	}
	edges := universe(p, ix)
	start := time.Now()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if k > len(edges) {
		k = len(edges)
	}
	res := newResult(name, ix.TotalSimilarity())
	for _, e := range edges[:k] {
		if err := env.err(); err != nil {
			return nil, err
		}
		ix.DeleteEdge(e)
		res.record(e, ix.TotalSimilarity(), time.Since(start))
		env.onStep(res)
	}
	res.PerTargetFinal = ix.Similarities()
	res.Elapsed = time.Since(start)
	return res, nil
}

// OptimalSGB exhaustively finds a protector set of size ≤ k maximising the
// dissimilarity, by enumerating subsets of the Lemma 5 candidate edges.
// Exponential — only for small instances in tests verifying the greedy's
// (1 − 1/e) bound. Ties are resolved toward the lexicographically smallest
// protector set.
func OptimalSGB(p *Problem, k int) (best []graph.Edge, bestBroken int, err error) {
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	if err != nil {
		return nil, 0, err
	}
	cands := ix.CandidateEdges()
	insts := motif.Instances(p.G, p.Pattern, p.Targets)
	if len(cands) > 24 {
		return nil, 0, fmt.Errorf("tpp: OptimalSGB: %d candidate edges is too many for exhaustive search", len(cands))
	}
	if k > len(cands) {
		k = len(cands)
	}

	broken := func(set map[graph.Edge]bool) int {
		n := 0
		for _, in := range insts {
			for _, e := range in.Edges {
				if set[e] {
					n++
					break
				}
			}
		}
		return n
	}

	cur := make(map[graph.Edge]bool)
	var rec func(start, remaining int)
	var chosen []graph.Edge
	rec = func(start, remaining int) {
		if b := broken(cur); b > bestBroken {
			bestBroken = b
			best = append(best[:0], chosen...)
		}
		if remaining == 0 {
			return
		}
		for i := start; i < len(cands); i++ {
			cur[cands[i]] = true
			chosen = append(chosen, cands[i])
			rec(i+1, remaining-1)
			chosen = chosen[:len(chosen)-1]
			delete(cur, cands[i])
		}
	}
	rec(0, k)
	out := append([]graph.Edge(nil), best...)
	graph.SortEdges(out)
	return out, bestBroken, nil
}

// OptimalMLBT exhaustively solves the Multi-Local-Budget problem: assign
// each candidate protector to at most one target's sub-budget (or leave it
// undeleted) so that Σ budgets are respected and the number of broken
// instances is maximal. This is the partition-matroid optimum that
// Theorems 4 and 5 compare CT/WT-Greedy against. Exponential in the
// candidate count — tests only.
func OptimalMLBT(p *Problem, budgets []int) (bestBroken int, err error) {
	if err := validateBudgets(p, budgets); err != nil {
		return 0, err
	}
	ix, err := motif.NewIndex(p.G, p.Pattern, p.Targets)
	if err != nil {
		return 0, err
	}
	cands := ix.CandidateEdges()
	if len(cands) > 10 {
		return 0, fmt.Errorf("tpp: OptimalMLBT: %d candidate edges is too many for exhaustive search", len(cands))
	}
	insts := motif.Instances(p.G, p.Pattern, p.Targets)

	deleted := make(map[graph.Edge]bool)
	used := make([]int, len(budgets))
	broken := func() int {
		n := 0
		for _, in := range insts {
			for _, e := range in.Edges {
				if deleted[e] {
					n++
					break
				}
			}
		}
		return n
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(cands) {
			if b := broken(); b > bestBroken {
				bestBroken = b
			}
			return
		}
		rec(i + 1) // leave cands[i] undeleted
		for ti := range budgets {
			if used[ti] < budgets[ti] {
				used[ti]++
				deleted[cands[i]] = true
				rec(i + 1)
				delete(deleted, cands[i])
				used[ti]--
			}
		}
	}
	rec(0)
	return bestBroken, nil
}

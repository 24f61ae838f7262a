package tpp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/motif"
)

// Parallel SGB-Greedy for the recount cost model. The per-step argmax scan
// is embarrassingly parallel, but the recount evaluator mutates its
// working graph to score a candidate (delete, recount, restore), so
// parallel evaluation needs one working graph per worker. Selections are
// bit-identical to the serial algorithm: each worker reports its chunk's
// best (gain, lowest edge id) pair and the reduction is order-independent.
//
// This is an engineering extension beyond the paper — the paper ran
// single-threaded on a 128 GB server — kept separate from the serial code
// path so the complexity-faithful variants stay exactly as analysed.
// Sessions reach it through WithWorkers; sgbGreedy routes here when the
// engine is EngineRecount and more than one worker was requested.

// sgbGreedyParallel runs SGB-Greedy with the recount engine using the
// given number of workers (0 or 1 falls back to the serial sgbGreedy).
func sgbGreedyParallel(p *Problem, k int, scope Scope, workers int, env runEnv) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeBudget, k)
	}
	if workers <= 1 {
		serialEnv := env
		serialEnv.workers = 1
		return sgbGreedy(p, k, options{Engine: EngineRecount, Scope: scope}, serialEnv)
	}

	start := time.Now()
	master := newRecountEvaluator(p, scope)
	in := master.interner()
	// Per-worker working graphs, kept in lockstep with master's deletions.
	graphs := make([]*graph.Graph, workers)
	for i := range graphs {
		graphs[i] = p.G.Clone()
	}

	res := newResult(options{Scope: scope}.variantName("SGB-Greedy")+":parallel", master.totalSimilarity())
	type bestPick struct {
		id   graph.EdgeID
		gain int
		ok   bool
	}
	var cands []graph.EdgeID
	for len(res.Protectors) < k {
		if err := env.err(); err != nil {
			return nil, err
		}
		cands = master.candidates(cands[:0])
		if len(cands) == 0 {
			break
		}
		picks := make([]bestPick, workers)
		var wg sync.WaitGroup
		chunk := (len(cands) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(cands) {
				break
			}
			hi := lo + chunk
			if hi > len(cands) {
				hi = len(cands)
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				g := graphs[w]
				base := master.totalSimilarity()
				var pick bestPick
				var sc motif.Scratch // per-worker enumeration scratch
				for i, cand := range cands[lo:hi] {
					// Honour cancellation mid-scan: each recount is
					// expensive, so a deadline must not wait out the whole
					// chunk. ctx.Err() is sticky; the post-Wait check
					// surfaces the abort.
					if i%checkEvery == checkEvery-1 && env.err() != nil {
						return
					}
					e := in.Edge(cand)
					if !g.HasEdgeE(e) {
						continue
					}
					g.RemoveEdgeE(e)
					after := motif.CountTotalScratch(g, p.Pattern, p.Targets, &sc)
					g.AddEdgeE(e)
					gain := base - after
					if gain > pick.gain {
						pick = bestPick{id: cand, gain: gain, ok: true}
					}
				}
				picks[w] = pick
			}(w, lo, hi)
		}
		wg.Wait()
		if err := env.err(); err != nil {
			return nil, err
		}

		var best bestPick
		for _, pk := range picks {
			if !pk.ok {
				continue
			}
			if !best.ok || pk.gain > best.gain || (pk.gain == best.gain && pk.id < best.id) {
				best = pk
			}
		}
		if !best.ok || best.gain == 0 {
			break
		}
		master.delete(best.id)
		bestEdge := in.Edge(best.id)
		for _, g := range graphs {
			g.RemoveEdgeE(bestEdge)
		}
		res.record(bestEdge, master.totalSimilarity(), time.Since(start))
		env.onStep(res)
	}
	res.PerTargetFinal = append([]int(nil), master.similarities()...)
	res.Elapsed = time.Since(start)
	return res, nil
}

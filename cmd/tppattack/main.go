// Command tppattack plays the adversary: given a released graph and a set
// of hidden link hypotheses, it scores every hypothesis under all
// link-prediction indices and reports ranks and AUC against a random
// non-edge pool. Use it to audit a release produced by cmd/tpp.
//
// Usage:
//
//	tppattack -in released.txt -candidates "alice-bob,carol-dave" [-pool 500]
//
// Exit status is 2 when any candidate link is predicted better than chance
// (AUC > 0.5 under some index), making the tool usable as a release gate:
//
//	tpp -in g.txt -targets "$T" -out rel.txt && tppattack -in rel.txt -candidates "$T"
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/linkpred"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppattack:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("tppattack", flag.ContinueOnError)
	var (
		inPath = fs.String("in", "", "released edge list (required)")
		cands  = fs.String("candidates", "", "comma-separated hidden link hypotheses, e.g. \"a-b,c-d\" (required)")
		pool   = fs.Int("pool", 500, "random non-edge pool size for ranking")
		seed   = fs.Int64("seed", 1, "random seed for pool sampling")
		katz   = fs.Bool("katz", false, "include the (slower) Katz index")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *inPath == "" || *cands == "" {
		fs.Usage()
		return 1, fmt.Errorf("-in and -candidates are required")
	}

	f, err := os.Open(*inPath)
	if err != nil {
		return 1, err
	}
	g, lab, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		return 1, err
	}

	targets, err := parseCandidates(*cands, lab)
	if err != nil {
		return 1, err
	}
	for _, t := range targets {
		if g.HasEdgeE(t) {
			fmt.Printf("candidate %s-%s is PRESENT in the release — fully exposed\n",
				lab.Name(t.U), lab.Name(t.V))
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	nonEdges := linkpred.SampleNonEdges(g, *pool, targets, rng)
	indices := linkpred.TriangleIndices
	if *katz {
		indices = linkpred.AllIndices
	}

	anySignal := false
	fmt.Printf("%-20s %10s %10s %8s\n", "index", "max-score", "best-rank", "AUC")
	for _, kind := range indices {
		reports := linkpred.RankTargets(g, kind, targets, nonEdges)
		maxScore, bestRank := 0.0, reports[0].Rank
		for _, r := range reports {
			if r.Score > maxScore {
				maxScore = r.Score
			}
			if r.Rank < bestRank {
				bestRank = r.Rank
			}
		}
		auc := linkpred.AUC(g, kind, targets, nonEdges)
		fmt.Printf("%-20s %10.4f %10d %8.3f\n", kind, maxScore, bestRank, auc)
		if auc > 0.5 {
			anySignal = true
		}
	}
	if anySignal {
		fmt.Println("VERDICT: at least one index predicts the candidates better than chance")
		return 2, nil
	}
	fmt.Println("VERDICT: no index beats chance — the candidates are protected")
	return 0, nil
}

func parseCandidates(spec string, lab *graph.Labeling) ([]graph.Edge, error) {
	var out []graph.Edge
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		uv := strings.SplitN(part, "-", 2)
		if len(uv) != 2 {
			return nil, fmt.Errorf("malformed candidate %q (want u-v)", part)
		}
		u, ok := lab.ID(uv[0])
		if !ok {
			return nil, fmt.Errorf("node %q not in graph", uv[0])
		}
		v, ok := lab.ID(uv[1])
		if !ok {
			return nil, fmt.Errorf("node %q not in graph", uv[1])
		}
		out = append(out, graph.NewEdge(u, v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no candidates parsed from %q", spec)
	}
	return out, nil
}

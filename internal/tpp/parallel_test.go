package tpp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/motif"
)

// The parallel recount greedy must make bit-identical selections to the
// serial recount greedy (and therefore to the indexed engines) for any
// worker count.
func TestPropertyParallelEqualsSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbertTriad(30, 3, 0.5, rng)
		targets := datasets.SampleTargets(g, 4, rng)
		p, err := NewProblem(g, motif.Rectangle, targets)
		if err != nil {
			return false
		}
		serial, err := sgbGreedy(p, 5, options{Engine: EngineRecount, Scope: ScopeTargetSubgraphs}, runEnv{})
		if err != nil {
			return false
		}
		for _, workers := range []int{2, 3, 7} {
			par, err := sgbGreedyParallel(p, 5, ScopeTargetSubgraphs, workers, runEnv{})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(par.Protectors, serial.Protectors) {
				return false
			}
			if !reflect.DeepEqual(par.SimilarityTrace, serial.SimilarityTrace) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelFallbackAndValidation(t *testing.T) {
	p, _ := fig2Problem(t)
	if _, err := sgbGreedyParallel(p, -1, ScopeAllEdges, 4, runEnv{}); err == nil {
		t.Fatal("negative budget accepted")
	}
	// workers <= 1 falls back to serial.
	one, err := sgbGreedyParallel(p, 2, ScopeAllEdges, 1, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sgbGreedy(p, 2, options{Engine: EngineRecount, Scope: ScopeAllEdges}, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Protectors, serial.Protectors) {
		t.Fatal("workers=1 fallback diverged from serial")
	}
	// More workers than candidates leaves some idle and must still match.
	wide, err := sgbGreedyParallel(p, 2, ScopeAllEdges, 64, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide.Protectors, serial.Protectors) {
		t.Fatal("wide worker count diverged from serial")
	}
}

package tpp

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// TestProtectDefaultsToFullProtection pins the session defaults: a run at
// the default budget (the critical budget k*) fully protects every target,
// the release leaves no target motif completable, and the caller's graph is
// never mutated.
func TestProtectDefaultsToFullProtection(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.BarabasiAlbertTriad(80, 3, 0.5, rng)
	targets := datasets.SampleTargets(g, 4, rng)
	before := g.Edges()
	session, err := New(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullProtection() {
		t.Fatal("default run should reach full protection")
	}
	released := session.Release(res)
	for _, tg := range targets {
		if released.HasEdgeE(tg) {
			t.Fatalf("target %v in release", tg)
		}
		if motif.Count(released, motif.Triangle, tg) != 0 {
			t.Fatalf("target %v still completable", tg)
		}
	}
	if !reflect.DeepEqual(g.Edges(), before) {
		t.Fatal("the session mutated the input graph")
	}
}

// TestProtectAllMethods drives one single-use session per method ×
// division through New / Run / Release under a fixed budget.
func TestProtectAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := gen.BarabasiAlbertTriad(60, 3, 0.5, rng)
	targets := datasets.SampleTargets(g, 3, rng)
	for _, m := range []Method{MethodSGB, MethodCT, MethodWT, MethodRD, MethodRDT} {
		for _, d := range []Division{DivisionTBD, DivisionDBD} {
			session, err := New(g, targets, WithPattern(motif.Rectangle),
				WithMethod(m), WithDivision(d), WithBudget(5), WithSeed(7))
			if err != nil {
				t.Fatalf("%s/%s: %v", m, d, err)
			}
			res, err := session.Run(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: %v", m, d, err)
			}
			if len(res.Protectors) > 5 {
				t.Fatalf("%s/%s: budget exceeded: %d", m, d, len(res.Protectors))
			}
			released := session.Release(res)
			for _, e := range append(append([]graph.Edge(nil), targets...), res.Protectors...) {
				if released.HasEdgeE(e) {
					t.Fatalf("%s/%s: %v survives in the release", m, d, e)
				}
			}
		}
	}
}

// TestProtectErrors pins that per-run option overrides are validated like
// construction-time ones, with the same typed errors.
func TestProtectErrors(t *testing.T) {
	g := gen.Complete(4)
	session, err := New(g, []graph.Edge{graph.NewEdge(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := session.Run(ctx, WithMethod("bogus")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: err = %v, want ErrUnknownMethod", err)
	}
	if _, err := session.Run(ctx, WithMethod(MethodCT), WithDivision("bogus"), WithBudget(2)); !errors.Is(err, ErrUnknownDivision) {
		t.Fatalf("unknown division: err = %v, want ErrUnknownDivision", err)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	p, _ := fig2Problem(t)
	res, err := sgbGreedy(p, 2, options{Engine: EngineIndexed}, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Method != res.Method {
		t.Fatalf("method %q != %q", back.Method, res.Method)
	}
	if !reflect.DeepEqual(back.Protectors, res.Protectors) {
		t.Fatalf("protectors differ: %v vs %v", back.Protectors, res.Protectors)
	}
	if !reflect.DeepEqual(back.SimilarityTrace, res.SimilarityTrace) {
		t.Fatal("traces differ")
	}
	if back.Elapsed != res.Elapsed || len(back.StepElapsed) != len(res.StepElapsed) {
		t.Fatal("timings differ")
	}
}

func TestResultJSONRejectsCorrupt(t *testing.T) {
	for _, in := range []string{
		`{`, // malformed
		`{"method":"x","protectors":[[1,1]],"similarity_trace":[2,1]}`,   // self loop
		`{"method":"x","protectors":[[0,1]],"similarity_trace":[3,2,1]}`, // trace mismatch
	} {
		if _, err := ReadResultJSON(bytes.NewReader([]byte(in))); err == nil {
			t.Fatalf("corrupt input accepted: %s", in)
		}
	}
}

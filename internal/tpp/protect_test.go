package tpp

import (
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

package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func writeGraphFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAttackOnProtectedRelease(t *testing.T) {
	// a and b have no common neighbours and no short paths: protected.
	in := writeGraphFile(t, "a c\nb d\nc e\nd f\ne g\nf h\n")
	code, err := run([]string{"-in", in, "-candidates", "a-b", "-pool", "10"})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (protected)", code)
	}
}

func TestAttackOnLeakyRelease(t *testing.T) {
	// a and b share two common neighbours: the adversary beats chance.
	in := writeGraphFile(t, "a c\nc b\na d\nd b\ne f\ng h\ni j\n")
	code, err := run([]string{"-in", in, "-candidates", "a-b", "-pool", "10"})
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (signal detected)", code)
	}
}

func TestAttackFlagErrors(t *testing.T) {
	in := writeGraphFile(t, "a b\n")
	for _, args := range [][]string{
		{},
		{"-in", in},
		{"-in", "/nonexistent", "-candidates", "a-b"},
		{"-in", in, "-candidates", "a-zzz"},
		{"-in", in, "-candidates", "garbage"},
	} {
		if _, err := run(args); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

func TestParseCandidates(t *testing.T) {
	lab := &graph.Labeling{}
	lab.Intern("x")
	lab.Intern("y")
	got, err := parseCandidates("x-y", lab)
	if err != nil || len(got) != 1 || got[0] != graph.NewEdge(0, 1) {
		t.Fatalf("parseCandidates = %v, %v", got, err)
	}
}

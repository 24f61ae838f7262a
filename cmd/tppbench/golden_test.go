package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed1.golden from the current code")

// goldenExperiments are the paper artefacts whose quick-scale output is
// fully deterministic for a fixed seed. fig5 and fig6 report wall-clock
// timings and are left out.
var goldenExperiments = []string{"fig3", "fig4", "tab3", "tab4", "tab5", "ext1", "ext2", "ext3"}

// TestGoldenQuickSeed1 pins every deterministic paper artefact at quick
// scale and seed 1 byte-for-byte, so a refactor of the selection engines,
// the budget divisions, the baselines or the released graph cannot shift a
// single printed figure unnoticed. Regenerate with
//
//	go test ./cmd/tppbench -run TestGoldenQuickSeed1 -update
//
// only when a change of output is intended.
func TestGoldenQuickSeed1(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	for _, exp := range goldenExperiments {
		if err = run([]string{"-exp", exp, "-seed", "1"}); err != nil {
			break
		}
	}
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "quick-seed1.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
			}
		}
	}
}

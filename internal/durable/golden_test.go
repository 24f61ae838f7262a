package durable

import (
	"bytes"
	"context"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.tpps from the current code")

const goldenSnapshot = "testdata/golden.tpps"

// goldenSession builds the session behind testdata/golden.tpps: a run, one
// delta that inserts and removes an edge, promotes an absent pair to a
// target and retires another target, then a second run. Its snapshot thus
// carries a target added by a delta, warm state and index invariants.
func goldenSession(tb testing.TB) *SessionSnapshot {
	tb.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	g := gen.BarabasiAlbertTriad(60, 3, 0.4, rng)
	targets := datasets.SampleTargets(g, 4, rng)
	pr, err := tpp.New(g, targets, tpp.WithPattern(motif.Rectangle))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := pr.Run(ctx); err != nil {
		tb.Fatal(err)
	}
	isTarget := func(e graph.Edge) bool {
		for _, t := range targets {
			if t == e {
				return true
			}
		}
		return false
	}
	var d dynamic.Delta
	for u := graph.NodeID(0); u < graph.NodeID(g.NumNodes()) && (d.Insert == nil || d.AddTargets == nil); u++ {
		for v := u + 1; v < graph.NodeID(g.NumNodes()); v++ {
			if g.HasEdge(u, v) || g.CommonNeighborCount(u, v) == 0 {
				continue
			}
			e := graph.NewEdge(u, v)
			if d.AddTargets == nil {
				d.AddTargets = []graph.Edge{e}
			} else if d.Insert == nil {
				d.Insert = []graph.Edge{e}
				break
			}
		}
	}
	for _, e := range g.Edges() {
		if !isTarget(e) {
			d.Remove = []graph.Edge{e}
			break
		}
	}
	d.DropTargets = []graph.Edge{pr.Problem().Targets[0]}
	if _, err := pr.Apply(ctx, d); err != nil {
		tb.Fatal(err)
	}
	if _, err := pr.Run(ctx); err != nil {
		tb.Fatal(err)
	}
	st, err := pr.Snapshot(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	labels := make([]string, st.Graph.NumNodes())
	for i := range labels {
		labels[i] = "user-" + strconv.Itoa(i)
	}
	return &SessionSnapshot{
		Seq:           1,
		Created:       time.Unix(1700000000, 0),
		Runs:          2,
		DefaultBudget: 0,
		Labels:        labels,
		State:         st,
	}
}

// TestGoldenSnapshotRoundTrip decodes a snapshot committed to testdata,
// restores a session from it, snapshots that session again and requires
// the re-encoding to reproduce the file byte for byte: the TPPS format, the
// restore path and the snapshot path must all stay stable across changes
// to how a session holds its graph. Regenerate with
//
//	go test ./internal/durable -run TestGoldenSnapshotRoundTrip -update
//
// only when a format change is intended.
func TestGoldenSnapshotRoundTrip(t *testing.T) {
	if *update {
		enc := EncodeSnapshot(nil, goldenSession(t))
		if err := os.MkdirAll(filepath.Dir(goldenSnapshot), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSnapshot, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State.Warm == nil || snap.State.Index == nil {
		t.Fatal("golden snapshot lacks warm state or index invariants")
	}
	pr, err := tpp.Restore(snap.State)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pr.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap.State = st
	if got := EncodeSnapshot(nil, snap); !bytes.Equal(got, want) {
		t.Fatalf("re-encoded snapshot (%d bytes) differs from %s (%d bytes)", len(got), goldenSnapshot, len(want))
	}
}

package graph_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

var cloneSink *graph.Graph

// BenchmarkGraphClone measures Graph.Clone on a DBLP(20000) stand-in, the
// copy a session create and every release make: the spine plus one backing
// array for all rows.
func BenchmarkGraphClone(b *testing.B) {
	g := datasets.DBLPSim(20000, 1).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		cloneSink = g.Clone()
	}
}

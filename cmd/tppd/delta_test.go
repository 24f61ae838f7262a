package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

// labelOracle is the reference label table: names in node-ID order with a
// full inverse map, the shape the table had before its map went sparse.
type labelOracle struct {
	toID   map[string]graph.NodeID
	toName []string
}

func newLabelOracle(names []string) *labelOracle {
	o := &labelOracle{toID: make(map[string]graph.NodeID, len(names)), toName: slices.Clone(names)}
	for i, name := range names {
		o.toID[name] = graph.NodeID(i)
	}
	return o
}

// rebuildLabels is the oracle for applyDeltaLabels: the from-scratch
// rebuild the label table used before the in-place remap. It returns a new
// table and leaves lab untouched; retired collects the removed names.
func rebuildLabels(lab *labelOracle, added []string, rep *tpp.DeltaReport, retired map[string]bool) *labelOracle {
	out := &labelOracle{toID: maps.Clone(lab.toID), toName: slices.Clone(lab.toName)}
	for _, name := range added {
		out.toID[name] = graph.NodeID(len(out.toName))
		out.toName = append(out.toName, name)
	}
	if rep.NodeRemap == nil {
		return out
	}
	old := out.toName
	out.toName = make([]string, rep.Nodes)
	for i, name := range old {
		if nw := rep.NodeRemap[i]; nw == graph.NoNode {
			delete(out.toID, name)
			retired[name] = true
		} else {
			out.toName[nw] = name
			out.toID[name] = nw
		}
	}
	return out
}

// remeasureFootprint is sessionFootprint with the label bytes walked
// afresh instead of read from the record's running count.
func remeasureFootprint(rec *sessionRecord) int64 {
	return rec.session.MemFootprint() + labelTableBytes(rec.lab, nameBytes(rec.lab.ToName))
}

// datasetRecord builds a session record the way the create handler does
// for a server-side dblp dataset with sampled targets.
func datasetRecord(t testing.TB, scale int, pattern motif.Pattern) *sessionRecord {
	t.Helper()
	g, lab, err := graphFromDataset(&datasetSpec{Name: "dblp", Scale: scale, Seed: 1}, newDatasetCache(datasetCacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	targets := datasets.SampleTargets(g, 3, rand.New(rand.NewSource(1)))
	pr, err := tpp.New(g, targets, tpp.WithPattern(pattern))
	if err != nil {
		t.Fatal(err)
	}
	return &sessionRecord{session: pr, lab: lab, labBytes: nameBytes(lab.ToName)}
}

// TestApplyDeltaLabelsMatchesRebuild drives a seeded, departure-heavy
// mutation stream through the delta handler's path — resolveDelta, Apply,
// applyDeltaLabels — and checks after every delta that the in-place table
// equals a from-scratch rebuild with a full inverse map: ID agrees with
// the rebuild on every live name and finds no retired one, ID is a
// bijection onto [0, Nodes), the sparse map holds exactly the non-identity
// names, and the running footprint equals a full re-measure.
func TestApplyDeltaLabelsMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	rec := datasetRecord(t, 400, motif.Triangle)
	if _, err := rec.session.Run(ctx); err != nil { // build the index, so Apply maintains it
		t.Fatal(err)
	}
	rates := gen.ChurnRates{EdgeInsert: 0.3, EdgeRemove: 0.2, NodeArrive: 0.15, NodeDepart: 0.25, TargetAdd: 0.05, TargetDrop: 0.05}
	// The churn mirror tracks the original graph: the session's phase-1
	// graph with the target links added back.
	p := rec.session.Problem()
	orig := p.G.Clone()
	for _, t := range p.Targets {
		orig.AddEdgeE(t)
	}
	churn := gen.NewMutationChurn(orig, p.Targets, rates, rand.New(rand.NewSource(7)))
	ref := newLabelOracle(rec.lab.ToName)
	retired := make(map[string]bool)
	minted, departures := 0, 0
	for batch := 0; batch < 150; batch++ {
		m := churn.Next(8)
		if dynamic.Delta(m).Empty() {
			continue
		}
		var added []string
		for i := 0; i < m.AddNodes; i++ {
			minted++
			added = append(added, "new-"+strconv.Itoa(minted))
		}
		name := func(x graph.NodeID) string {
			if int(x) < len(rec.lab.ToName) {
				return rec.lab.ToName[x]
			}
			return added[int(x)-len(rec.lab.ToName)]
		}
		pairs := func(es []graph.Edge) [][2]string {
			out := make([][2]string, len(es))
			for i, e := range es {
				out[i] = [2]string{name(e.U), name(e.V)}
			}
			return out
		}
		req := deltaRequest{
			Insert: pairs(m.Insert), Remove: pairs(m.Remove), AddNodes: added,
			AddTargets: pairs(m.AddTargets), DropTargets: pairs(m.DropTargets),
		}
		for _, x := range m.RemoveNodes {
			req.RemoveNodes = append(req.RemoveNodes, name(x))
		}
		d, err := resolveDelta(&req, rec.lab)
		if err != nil {
			t.Fatalf("batch %d: resolveDelta: %v", batch, err)
		}
		rep, err := rec.session.Apply(ctx, d)
		if err != nil {
			t.Fatalf("batch %d: Apply: %v", batch, err)
		}
		departures += rep.NodesRemoved
		if rep.Nodes != churn.Graph().NumNodes() || rep.Edges != churn.Graph().NumEdges() {
			t.Fatalf("batch %d: report says %d nodes / %d edges, churn mirror %v", batch, rep.Nodes, rep.Edges, churn.Graph())
		}
		ref = rebuildLabels(ref, req.AddNodes, rep, retired)
		rec.labBytes += applyDeltaLabels(rec.lab, req.AddNodes, rep)

		lab := rec.lab
		if !slices.Equal(lab.ToName, ref.toName) {
			t.Fatalf("batch %d: in-place table diverged from the rebuild", batch)
		}
		if len(lab.ToName) != rep.Nodes || len(ref.toID) != rep.Nodes {
			t.Fatalf("batch %d: table has %d names / rebuild %d ids for %d nodes", batch, len(lab.ToName), len(ref.toID), rep.Nodes)
		}
		nonIdentity := 0
		for nm, want := range ref.toID {
			if id, ok := lab.ID(nm); !ok || id != want {
				t.Fatalf("batch %d: ID(%q) = %d, %v; the rebuild has %d", batch, nm, id, ok, want)
			}
			if i, err := strconv.Atoi(nm); err != nil || i != int(want) {
				nonIdentity++
			}
		}
		for nm := range retired {
			if id, ok := lab.ID(nm); ok {
				t.Fatalf("batch %d: retired name %q still resolves to %d", batch, nm, id)
			}
		}
		for i, nm := range lab.ToName {
			if id, ok := lab.ID(nm); !ok || int(id) != i {
				t.Fatalf("batch %d: ID(ToName[%d] = %q) = %d, %v is not the inverse of ToName", batch, i, nm, id, ok)
			}
		}
		if got := lab.Aliases(); got != nonIdentity {
			t.Fatalf("batch %d: sparse map holds %d names, %d live names are non-identity", batch, got, nonIdentity)
		}
		if tail := lab.ToName[len(lab.ToName):cap(lab.ToName)]; slices.ContainsFunc(tail, func(s string) bool { return s != "" }) {
			t.Fatalf("batch %d: truncated tail still holds names", batch)
		}
		if got, want := sessionFootprint(rec), remeasureFootprint(rec); got != want {
			t.Fatalf("batch %d: sessionFootprint = %d, full re-measure %d", batch, got, want)
		}
	}
	if departures < 20 {
		t.Fatalf("stream produced only %d departures; the remap path is barely exercised", departures)
	}
}

// TestDeltaLabelWorkIndependentOfGraphSize pins the handler-side cost of a
// delta with one arrival and one departure: applyDeltaLabels plus
// sessionFootprint must allocate the same bytes on a 2,000-node and a
// 20,000-node session, so per-delta O(N) work cannot creep back.
func TestDeltaLabelWorkIndependentOfGraphSize(t *testing.T) {
	const ops, trials = 200, 5
	perOp := func(scale int) float64 {
		rec := datasetRecord(t, scale, motif.Triangle)
		n := len(rec.lab.ToName)
		// One arrival (ID n) and the departure of node 5: the arrival moves
		// into the freed slot, so the table keeps n entries every round.
		rep := &tpp.DeltaReport{Nodes: n, NodeRemap: make([]graph.NodeID, n+1)}
		for i := range rep.NodeRemap {
			rep.NodeRemap[i] = graph.NodeID(i)
		}
		rep.NodeRemap[5], rep.NodeRemap[n] = graph.NoNode, 5
		names := make([][]string, ops*trials+1)
		for i := range names {
			names[i] = []string{"arrival-" + strconv.Itoa(i)}
		}
		step := func(i int) {
			rec.labBytes += applyDeltaLabels(rec.lab, names[i], rep)
			_ = sessionFootprint(rec)
		}
		step(ops * trials) // warm-up: the first append grows ToName once
		// MemStats counts every goroutine's allocations; the minimum over
		// several trials discards the ones a stray runtime or leftover
		// server goroutine made during a window.
		best := -1.0
		for tr := 0; tr < trials; tr++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := tr * ops; i < (tr+1)*ops; i++ {
				step(i)
			}
			runtime.ReadMemStats(&after)
			if b := float64(after.TotalAlloc-before.TotalAlloc) / ops; best < 0 || b < best {
				best = b
			}
		}
		if got, want := sessionFootprint(rec), remeasureFootprint(rec); got != want {
			t.Fatalf("scale %d: sessionFootprint = %d, full re-measure %d", scale, got, want)
		}
		return best
	}
	small, large := perOp(2000), perOp(20000)
	t.Logf("bytes per delta: %.1f at 2,000 nodes, %.1f at 20,000 nodes", small, large)
	// The slack absorbs stray runtime allocations; an O(N) rebuild costs
	// hundreds of kilobytes per delta at 20,000 nodes.
	if large > small+64 {
		t.Fatalf("label work allocates %.1f B/delta at 20,000 nodes vs %.1f at 2,000: it scales with the graph", large, small)
	}
}

// BenchmarkSessionDeltaLarge measures the delta handler end to end over
// HTTP on one DBLP(20000) Rectangle session with a built motif index, fed
// the default churn mix (about half of the 8-event batches carry a node
// departure). B/op and allocs/op cover client, handler and library
// together; the delta bodies are generated before the timer starts.
func BenchmarkSessionDeltaLarge(b *testing.B) {
	_, ts := startTestServer(b, testConfig())
	post := func(path string, payload []byte) []byte {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			b.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	spec := datasetSpec{Name: "dblp", Scale: 20000, Seed: 1}
	create, err := json.Marshal(protectRequest{Dataset: &spec, SampleTargets: 3, Pattern: "Rectangle"})
	if err != nil {
		b.Fatal(err)
	}
	var info sessionResponse
	if err := json.Unmarshal(post("/v1/sessions", create), &info); err != nil {
		b.Fatal(err)
	}
	post("/v1/sessions/"+info.ID+"/protect", []byte(`{"omit_released":true}`))

	// Mirror the session client-side: its graph, targets and label table,
	// kept in step with the server's the way applyDeltaLabels renames.
	g, lab, err := graphFromDataset(&spec, newDatasetCache(datasetCacheBytes))
	if err != nil {
		b.Fatal(err)
	}
	labels := lab.ToName
	var targets []graph.Edge
	for _, t := range info.Targets {
		u, _ := lab.ID(t[0])
		v, _ := lab.ID(t[1])
		targets = append(targets, graph.NewEdge(u, v))
	}
	churn := gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rand.New(rand.NewSource(1)))
	pairs := func(es []graph.Edge) [][2]string {
		out := make([][2]string, len(es))
		for i, e := range es {
			out[i] = [2]string{labels[e.U], labels[e.V]}
		}
		return out
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		m := churn.Next(8)
		for dynamic.Delta(m).Empty() {
			m = churn.Next(8)
		}
		req := deltaRequest{}
		for j := 0; j < m.AddNodes; j++ {
			name := "arrival-" + strconv.Itoa(i) + "-" + strconv.Itoa(j)
			req.AddNodes = append(req.AddNodes, name)
			labels = append(labels, name)
		}
		req.Insert, req.Remove = pairs(m.Insert), pairs(m.Remove)
		req.AddTargets, req.DropTargets = pairs(m.AddTargets), pairs(m.DropTargets)
		for j := len(m.RemoveNodes) - 1; j >= 0; j-- { // swap-with-last, descending
			x, last := m.RemoveNodes[j], len(labels)-1
			req.RemoveNodes = append(req.RemoveNodes, labels[x])
			labels[x] = labels[last]
			labels = labels[:last]
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	path := "/v1/sessions/" + info.ID + "/delta"
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		post(path, body)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// wireBytes appends what identifies r on the wire: method, path,
// session-id header and body.
func wireBytes(buf *bytes.Buffer, r *request) {
	fmt.Fprintf(buf, "%s %s %s\n", r.method, r.path, r.id)
	buf.Write(r.body)
}

// streamBytes renders the first n requests of every client (set-up
// requests first), acknowledging each as tppd would.
func streamBytes(cs []client, n int) []byte {
	var buf bytes.Buffer
	for _, cl := range cs {
		for _, r := range cl.seedRequests() {
			wireBytes(&buf, r)
			cl.seeded(r, nil)
		}
		for i := 0; i < n; i++ {
			r := cl.next()
			wireBytes(&buf, r)
			cl.done(r, expectStatus[r.op], nil)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	mix := func(seed int64) []byte {
		return streamBytes(mixClients(seed, 40, [numOps]int{5, 50, 30, 10, 5}, 0), 600)
	}
	zipf := func(seed int64) []byte {
		return streamBytes(mixClients(seed, 40, [numOps]int{5, 60, 20, 10, 5}, zipfS), 600)
	}
	evolve := func(seed int64) []byte {
		return streamBytes(prepareEvolve(seed, 400, 6)(), 60) // more than two passes per slot
	}
	for name, stream := range map[string]func(int64) []byte{"mixed": mix, "zipf": zipf, "evolve": evolve} {
		a, b := stream(7), stream(7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request streams", name)
		}
		if bytes.Equal(a, stream(8)) {
			t.Errorf("%s: seeds 7 and 8 produced the same request stream", name)
		}
	}
}

func TestEvolveFactoryRepeatsTheScript(t *testing.T) {
	factory := prepareEvolve(3, 400, 4)
	if !bytes.Equal(streamBytes(factory(), 40), streamBytes(factory(), 40)) {
		t.Fatal("two client sets from one factory sent different streams")
	}
}

// serverModel applies labelled delta requests the way tppd does: labels
// resolve to ids (add_nodes take the next dense ids), the delta applies to
// the original-style graph, and the node remap renames the label table.
type serverModel struct {
	g       *graph.Graph
	targets []graph.Edge
	toID    map[string]graph.NodeID
	toName  []string
}

func newServerModel(g *graph.Graph, targets []graph.Edge, labels []string) *serverModel {
	m := &serverModel{g: g.Clone(), targets: slices.Clone(targets), toID: map[string]graph.NodeID{}, toName: slices.Clone(labels)}
	for i, l := range labels {
		m.toID[l] = graph.NodeID(i)
	}
	return m
}

func (m *serverModel) apply(t *testing.T, body []byte) {
	t.Helper()
	var req deltaBody
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	for i, l := range req.AddNodes {
		if _, dup := m.toID[l]; dup {
			t.Fatalf("add_nodes label %q already names a node", l)
		}
		m.toID[l] = graph.NodeID(len(m.toName) + i)
	}
	id := func(l string) graph.NodeID {
		v, ok := m.toID[l]
		if !ok {
			t.Fatalf("label %q unknown to the server model", l)
		}
		return v
	}
	edges := func(ps [][2]string) []graph.Edge {
		var out []graph.Edge
		for _, p := range ps {
			out = append(out, graph.Edge{U: id(p[0]), V: id(p[1])})
		}
		return out
	}
	d := dynamic.Delta{
		Insert: edges(req.Insert), Remove: edges(req.Remove),
		AddNodes:   len(req.AddNodes),
		AddTargets: edges(req.AddTargets), DropTargets: edges(req.DropTargets),
	}
	for _, l := range req.RemoveNodes {
		d.RemoveNodes = append(d.RemoveNodes, id(l))
	}
	d, err := d.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(m.g, m.targets); err != nil {
		t.Fatalf("delta rejected by the server model: %v", err)
	}
	m.toName = append(m.toName, req.AddNodes...)
	remap := d.ApplyToOriginal(m.g)
	m.targets = d.ApplyTargets(m.targets, remap)
	if remap != nil {
		old := m.toName
		m.toName = make([]string, m.g.NumNodes())
		for i, name := range old {
			if nw := remap[i]; nw == graph.NoNode {
				delete(m.toID, name)
			} else {
				m.toName[nw] = name
				m.toID[name] = nw
			}
		}
	}
}

func TestMirrorTracksMutationChurnAcrossRemaps(t *testing.T) {
	departHeavy := gen.ChurnRates{EdgeInsert: 0.3, EdgeRemove: 0.2, NodeArrive: 0.15, NodeDepart: 0.25, TargetAdd: 0.05, TargetDrop: 0.05}
	for _, s := range []*session{smallSession(5, 0, 3), dblpSession("s-0000000000000001", 300, 2, 9)} {
		s.churn = gen.NewMutationChurn(s.g0, s.targets0, departHeavy, rand.New(rand.NewSource(4)))
		srv := newServerModel(s.g0, s.targets0, s.labels)
		departures := 0
		for batch := 0; batch < 300; batch++ {
			r := s.nextDelta(6)
			departures += len(r.mut.RemoveNodes)
			srv.apply(t, r.body)
			cg := s.churn.Graph()
			if !slices.Equal(s.labels, srv.toName) {
				t.Fatalf("batch %d: mirror labels diverged from the server's", batch)
			}
			if !slices.Equal(cg.Edges(), srv.g.Edges()) || cg.NumNodes() != srv.g.NumNodes() {
				t.Fatalf("batch %d: churn graph diverged from the server's", batch)
			}
			if !slices.Equal(s.churn.Targets(), srv.targets) {
				t.Fatalf("batch %d: churn targets diverged from the server's", batch)
			}
		}
		if departures == 0 {
			t.Fatal("no node departed; the remap path went untested")
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{20, 50, true, 10},
		{19, 50, false, 0},
		{1000, 99, true, 990},
		{999, 99, false, 0},
		{100, 90, true, 90},
		{99, 90, false, 0},
		{0, 50, false, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, ok=%v", tc.n, tc.p, got, err, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

func TestMetricNamesAndContract(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEndDefs, ungatedDefs, perLayerDefs) {
		if !metricNamePattern.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no contract next to the benchmark: %v", err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.EndToEnd) != len(endToEndDefs) || len(c.PerLayer) != len(perLayerDefs) {
		t.Fatalf("contract lists %d end-to-end and %d per-layer metrics; the benchmark emits %d and %d",
			len(c.EndToEnd), len(c.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range c.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	for i, m := range c.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	var listed []*workload
	for _, w := range workloads {
		if w.contract {
			listed = append(listed, w)
		}
	}
	if len(c.Workloads) != len(listed) {
		t.Fatalf("contract lists %d workloads, benchmark marks %d", len(c.Workloads), len(listed))
	}
	for i, wl := range c.Workloads {
		if wl.Name != listed[i].name || wl.Why != listed[i].why {
			t.Errorf("workload %d: contract has %q (%q), benchmark %q (%q)", i, wl.Name, wl.Why, listed[i].name, listed[i].why)
		}
	}
}

func TestParseGCTrace(t *testing.T) {
	ns, ok := parseGCTrace("gc 12 @1.234s 3%: 0.020+1.1+0.010 ms clock, 0.040+0.50/1.0/0.25+0.020 ms cpu, 4->4->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || ns != 1810000 {
		t.Fatalf("parseGCTrace = %d, %v; want 1810000, true", ns, ok)
	}
	if _, ok := parseGCTrace(`time=2026 level=INFO msg="gc 1"`); ok {
		t.Fatal("a log line parsed as a GC trace")
	}
}

func TestCheckReleasedRecountsTriangles(t *testing.T) {
	// Target a-b; c closes a triangle with it, d does not (d-b removed by
	// the protector).
	p := &protectBody{
		Targets:           [][2]string{{"a", "b"}},
		Protectors:        [][2]string{{"d", "b"}},
		InitialSimilarity: 2, FinalSimilarity: 1,
		SimilarityTrace: []int{2, 1},
		ReleasedEdges:   [][2]string{{"a", "c"}, {"c", "b"}, {"a", "d"}},
	}
	if err := checkTrace(p); err != nil {
		t.Fatal(err)
	}
	if err := checkReleased(p); err != nil {
		t.Fatal(err)
	}
	p.FinalSimilarity, p.SimilarityTrace = 0, []int{2, 0}
	if err := checkReleased(p); err == nil || !strings.Contains(err.Error(), "closes 1") {
		t.Fatalf("wrong final similarity not caught: %v", err)
	}
	p.SimilarityTrace = []int{2, 3}
	if checkTrace(p) == nil {
		t.Fatal("rising trace not caught")
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := map[int64]float64{}
	for seed := int64(1); seed <= 10; seed++ {
		parent[seed] = 100 + float64(seed%3) // spread 2 around 101
	}
	scaled := func(f float64) map[int64]float64 {
		out := map[int64]float64{}
		for s, v := range parent {
			out[s] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change map[int64]float64
		lower  bool
		bound  float64
		want   string
	}{
		{"faster", scaled(0.8), true, 0.1, "better"},
		{"slower", scaled(1.3), true, 0.1, "worse"},
		{"same", scaled(1.0), true, 0.1, "within bound"},
		{"slightly slower", scaled(1.05), true, 0.1, "within bound"},
		{"higher is better", scaled(1.3), false, 0.1, "better"},
		{"noisy parent", scaled(1.05), true, 0.001, "unresolved"},
	} {
		if _, got := verdict(parent, tc.change, tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
)

// Operation kinds. Their names are the suffixes of the per-op metrics.
const (
	opCreate = iota
	opDelta
	opProtect
	opRead
	opDelete
	numOps
)

var opNames = [numOps]string{"create", "delta", "protect", "read", "delete"}

// expectStatus is the only status each op may answer with; anything else,
// including a 429, is a failed request.
var expectStatus = [numOps]int{201, 200, 200, 200, 200}

// request is one generated HTTP request. The stream of requests a client
// sends is a pure function of the benchmark seed: ids are minted client-side
// and handed to tppd in the X-Tppd-Session-Id header, and every body is
// derived from the client's own mirror of the session.
type request struct {
	op     int
	method string
	path   string
	id     string // X-Tppd-Session-Id on creates
	body   []byte
	sess   *session

	// mut is the delta in the session's dense node ids at send time, kept
	// for the in-process replay; added holds its add_nodes labels.
	mut   *gen.Mutation
	added []string
	// round is the script position of an evolve-large delta or protect
	// (-1 for the index-building protect and for every other workload).
	round int
}

// session is a client's mirror of one tppd session. The mirror holds the
// graph and target list (inside the MutationChurn that generates its
// deltas) and the label of every node, kept in step with the server's label
// table across node-departure remaps.
type session struct {
	id      string
	create  []byte
	pattern motif.Pattern

	churn  *gen.MutationChurn
	labels []string // node id -> label, as tppd holds it
	minted int      // labels minted for arriving nodes so far
	deltas int      // deltas sent (and, once acked, applied)

	// The state the session was created with, for the replay and the
	// evolve-large parity check.
	g0       *graph.Graph
	targets0 []graph.Edge
}

// newSession builds the mirror for a session created from g and targets
// with the given node labels.
func newSession(id string, create []byte, pattern motif.Pattern, g *graph.Graph, targets []graph.Edge, labels []string, rng *rand.Rand) *session {
	return &session{
		id:       id,
		create:   create,
		pattern:  pattern,
		churn:    gen.NewMutationChurn(g, targets, gen.DefaultChurnRates(), rng),
		labels:   labels,
		g0:       g,
		targets0: targets,
	}
}

// deltaBody is the wire form of tppd's deltaRequest.
type deltaBody struct {
	Insert      [][2]string `json:"insert,omitempty"`
	Remove      [][2]string `json:"remove,omitempty"`
	AddNodes    []string    `json:"add_nodes,omitempty"`
	RemoveNodes []string    `json:"remove_nodes,omitempty"`
	AddTargets  [][2]string `json:"add_targets,omitempty"`
	DropTargets [][2]string `json:"drop_targets,omitempty"`
}

// nextDelta draws the session's next non-empty k-event MutationChurn batch,
// renders it in labels and advances the label table exactly as tppd's
// applyDeltaLabels does: arrivals take fresh labels in id order, and each
// departure (processed in descending id order) moves the highest id's label
// into the freed slot, which is graph.RemoveNodes' swap-with-last remap.
func (s *session) nextDelta(k int) *request {
	var m gen.Mutation
	for tries := 0; ; tries++ {
		m = s.churn.Next(k)
		if !dynamic.Delta(m).Empty() {
			break
		}
		if tries > 64 {
			panic("tppdbench: mutation churn stalled") // needs a degenerate graph, which no workload builds
		}
	}
	var added []string
	for i := 0; i < m.AddNodes; i++ {
		s.minted++
		added = append(added, "a"+strconv.Itoa(s.minted))
	}
	s.labels = append(s.labels, added...)
	b := deltaBody{
		Insert:      s.labelPairs(m.Insert),
		Remove:      s.labelPairs(m.Remove),
		AddNodes:    added,
		AddTargets:  s.labelPairs(m.AddTargets),
		DropTargets: s.labelPairs(m.DropTargets),
	}
	for _, x := range m.RemoveNodes {
		b.RemoveNodes = append(b.RemoveNodes, s.labels[x])
	}
	s.labels = removeLabels(s.labels, m.RemoveNodes)
	s.deltas++
	return &request{
		op: opDelta, method: "POST", path: "/v1/sessions/" + s.id + "/delta",
		body: mustJSON(b), sess: s, mut: &m, added: added, round: -1,
	}
}

// removeLabels retires the labels of departed nodes (sorted ascending) the
// way graph.RemoveNodes renumbers: in descending order, each departure
// moves the highest id's label into the freed slot.
func removeLabels(labels []string, removed []graph.NodeID) []string {
	for i := len(removed) - 1; i >= 0; i-- {
		x, last := removed[i], len(labels)-1
		labels[x] = labels[last]
		labels = labels[:last]
	}
	return labels
}

// labelPairs renders edges in the session's current labels.
func (s *session) labelPairs(es []graph.Edge) [][2]string {
	out := make([][2]string, len(es))
	for i, e := range es {
		out[i] = [2]string{s.labels[e.U], s.labels[e.V]}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("tppdbench: encoding request: %v", err)) // plain structs of strings always encode
	}
	return b
}

// mix64 is the splitmix64 finaliser; it turns structured seeds into
// well-spread ones.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of one stream (kind, client, index) from the
// benchmark seed.
func subSeed(seed int64, kind, client, idx int) int64 {
	return int64(mix64(mix64(mix64(uint64(seed))^uint64(kind)<<56^uint64(client)<<40^uint64(idx))) >> 1)
}

// sessionID mints the id of a client's idx-th session in tppd's own shape.
func sessionID(seed int64, client, idx int) string {
	return fmt.Sprintf("s-%016x", uint64(subSeed(seed, 'i', client, idx)))
}

// createBody is the wire form of the subset of tppd's protectRequest the
// workloads send on create.
type createBody struct {
	Edges         [][2]string  `json:"edges,omitempty"`
	Dataset       *datasetBody `json:"dataset,omitempty"`
	Targets       [][2]string  `json:"targets,omitempty"`
	SampleTargets int          `json:"sample_targets,omitempty"`
	Pattern       string       `json:"pattern"`
}

type datasetBody struct {
	Name  string `json:"name"`
	Scale int    `json:"scale"`
	Seed  int64  `json:"seed"`
}

// smallSession is the mixed-small and durable-spill session shape (the
// shape tppload seeds): a 24-node ring plus 12 random chords, protecting
// two opposite ring links against Triangle motifs.
func smallSession(seed int64, client, idx int) *session {
	rng := rand.New(rand.NewSource(subSeed(seed, 'g', client, idx)))
	const n = 24
	name := func(i int) string { return "n" + strconv.Itoa(i) }
	g := graph.New(n)
	var edges [][2]string
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		edges = append(edges, [2]string{name(i), name((i + 1) % n)})
	}
	for len(edges) < n+12 {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || g.HasEdge(graph.NodeID(a), graph.NodeID(b)) {
			continue
		}
		g.AddEdge(graph.NodeID(a), graph.NodeID(b))
		edges = append(edges, [2]string{name(a), name(b)})
	}
	t1 := rng.Intn(n)
	t2 := (t1 + n/2) % n
	targets := []graph.Edge{
		graph.NewEdge(graph.NodeID(t1), graph.NodeID((t1+1)%n)),
		graph.NewEdge(graph.NodeID(t2), graph.NodeID((t2+1)%n)),
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = name(i) // tppd interns labels in first-appearance order: the ring lists n0..n23 first
	}
	body := createBody{
		Edges:   edges,
		Targets: [][2]string{{name(t1), name((t1 + 1) % n)}, {name(t2), name((t2 + 1) % n)}},
		Pattern: "Triangle",
	}
	id := sessionID(seed, client, idx)
	return newSession(id, mustJSON(body), motif.Triangle, g, targets, labels,
		rand.New(rand.NewSource(subSeed(seed, 'c', client, idx))))
}

// Shape of the evolve-large sessions.
const (
	dblpTargets = 384
	dblpPattern = "Rectangle"
)

// dblpSession is an evolve-large session: the server-side DBLP stand-in at
// the given scale with sample_targets, Rectangle pattern, critical budget.
// The mirror regenerates the same graph and the same target sample tppd
// draws (its sampling seed defaults to 1 when the request sets none).
func dblpSession(id string, scale int, dsSeed, churnSeed int64) *session {
	g := datasets.DBLPSim(scale, dsSeed).Graph
	targets := datasets.SampleTargets(g, dblpTargets, rand.New(rand.NewSource(1)))
	labels := make([]string, g.NumNodes())
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	body := createBody{
		Dataset:       &datasetBody{Name: "dblp", Scale: scale, Seed: dsSeed},
		SampleTargets: dblpTargets,
		Pattern:       dblpPattern,
	}
	return newSession(id, mustJSON(body), motif.Rectangle, g, targets, labels,
		rand.New(rand.NewSource(churnSeed)))
}

// Request constructors for the session-level ops.

func (s *session) createReq() *request {
	return &request{op: opCreate, method: "POST", path: "/v1/sessions", id: s.id, body: s.create, sess: s, round: -1}
}

var protectWithReleased = []byte(`{}`)
var protectOmitReleased = []byte(`{"omit_released":true}`)

func (s *session) protectReq(body []byte) *request {
	return &request{op: opProtect, method: "POST", path: "/v1/sessions/" + s.id + "/protect", body: body, sess: s, round: -1}
}

func (s *session) readReq() *request {
	return &request{op: opRead, method: "GET", path: "/v1/sessions/" + s.id, sess: s, round: -1}
}

func (s *session) deleteReq() *request {
	return &request{op: opDelete, method: "DELETE", path: "/v1/sessions/" + s.id, sess: s, round: -1}
}

// sortedPairs returns label pairs in a canonical order, for set equality.
func sortedPairs(ps [][2]string) [][2]string {
	out := slices.Clone(ps)
	for i, p := range out {
		if p[1] < p[0] {
			out[i] = [2]string{p[1], p[0]}
		}
	}
	slices.SortFunc(out, func(a, b [2]string) int {
		if a[0] != b[0] {
			if a[0] < b[0] {
				return -1
			}
			return 1
		}
		if a[1] < b[1] {
			return -1
		}
		if a[1] > b[1] {
			return 1
		}
		return 0
	})
	return out
}

package graph

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// modelGraph is the map-based reference the sorted-slice core is checked
// against: the straightforward adjacency-set implementation the library
// used before the graph-core refactor. It is deliberately naive — every
// operation is spelled out over map sets — so a disagreement always
// indicts the optimized core.
type modelGraph struct {
	adj   []map[NodeID]struct{}
	edges int
}

func newModel(n int) *modelGraph {
	m := &modelGraph{adj: make([]map[NodeID]struct{}, n)}
	for i := range m.adj {
		m.adj[i] = make(map[NodeID]struct{})
	}
	return m
}

func (m *modelGraph) addNode() NodeID {
	m.adj = append(m.adj, make(map[NodeID]struct{}))
	return NodeID(len(m.adj) - 1)
}

func (m *modelGraph) addEdge(u, v NodeID) bool {
	if _, ok := m.adj[u][v]; ok {
		return false
	}
	m.adj[u][v] = struct{}{}
	m.adj[v][u] = struct{}{}
	m.edges++
	return true
}

// removeNode mirrors Graph.RemoveNode's swap-with-last contract on the map
// reference: strip n's edges, renumber the last node to n, return the old
// ID of the node now at n.
func (m *modelGraph) removeNode(n NodeID) NodeID {
	for w := range m.adj[n] {
		delete(m.adj[w], n)
	}
	m.edges -= len(m.adj[n])
	m.adj[n] = nil
	last := NodeID(len(m.adj) - 1)
	if n != last {
		m.adj[n] = m.adj[last]
		for w := range m.adj[n] {
			delete(m.adj[w], last)
			m.adj[w][n] = struct{}{}
		}
	}
	m.adj = m.adj[:last]
	return last
}

// clone deep-copies the model, so a graph copy gets a reference of its own.
func (m *modelGraph) clone() *modelGraph {
	c := &modelGraph{adj: make([]map[NodeID]struct{}, len(m.adj)), edges: m.edges}
	for i, row := range m.adj {
		c.adj[i] = maps.Clone(row)
	}
	return c
}

func (m *modelGraph) removeEdge(u, v NodeID) bool {
	if _, ok := m.adj[u][v]; !ok {
		return false
	}
	delete(m.adj[u], v)
	delete(m.adj[v], u)
	m.edges--
	return true
}

func (m *modelGraph) hasEdge(u, v NodeID) bool {
	_, ok := m.adj[u][v]
	return ok
}

func (m *modelGraph) neighbors(n NodeID) []NodeID {
	out := make([]NodeID, 0, len(m.adj[n]))
	for w := range m.adj[n] {
		out = append(out, w)
	}
	for i := 1; i < len(out); i++ { // insertion sort: the model stays naive
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// checkAgainstModel asserts full observational equality of graph and model.
func checkAgainstModel(t *testing.T, g *Graph, m *modelGraph) {
	t.Helper()
	if g.NumNodes() != len(m.adj) {
		t.Fatalf("NumNodes = %d, model has %d", g.NumNodes(), len(m.adj))
	}
	if g.NumEdges() != m.edges {
		t.Fatalf("NumEdges = %d, model has %d", g.NumEdges(), m.edges)
	}
	for n := NodeID(0); int(n) < len(m.adj); n++ {
		if g.Degree(n) != len(m.adj[n]) {
			t.Fatalf("Degree(%d) = %d, model has %d", n, g.Degree(n), len(m.adj[n]))
		}
		want := m.neighbors(n)
		if got := g.Neighbors(n); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("Neighbors(%d) = %v, model has %v", n, got, want)
		}
		if got := g.NeighborsView(n); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("NeighborsView(%d) = %v, model has %v", n, got, want)
		}
		for w := NodeID(0); int(w) < len(m.adj); w++ {
			if g.HasEdge(n, w) != m.hasEdge(n, w) {
				t.Fatalf("HasEdge(%d,%d) = %v, model disagrees", n, w, g.HasEdge(n, w))
			}
		}
	}
}

// walkFootprint is the reference for Graph.MemFootprint: the full walk over
// the spine and every row that the incremental count replaces.
func walkFootprint(g *Graph) int64 {
	b := int64(24) + int64(cap(g.adj))*24
	for _, row := range g.adj {
		b += int64(cap(row)) * 4
	}
	return b
}

func checkFootprint(t *testing.T, g *Graph, op string) {
	t.Helper()
	if got, want := g.MemFootprint(), walkFootprint(g); got != want {
		t.Fatalf("after %s: MemFootprint = %d, row walk gives %d", op, got, want)
	}
}

// applyModelOp decodes one mutation from a byte pair and applies it to both
// the graph and the model, asserting the mutation reports agree. Returns
// whether a structural check is due (AddNode boundaries double as
// checkpoints).
func applyModelOp(t *testing.T, g *Graph, m *modelGraph, a, b byte) bool {
	t.Helper()
	n := NodeID(g.NumNodes())
	switch {
	case a%8 == 7 && n < 64: // grow, bounded so pair coverage stays dense
		if got, want := g.AddNode(), m.addNode(); got != want {
			t.Fatalf("AddNode = %d, model got %d", got, want)
		}
		return true
	case a%8 == 6 && b%4 == 0 && n > 4: // shrink, rarely, keeping ≥4 nodes
		x := NodeID(b) % n
		if got, want := g.RemoveNode(x), m.removeNode(x); got != want {
			t.Fatalf("RemoveNode(%d) = %d, model got %d", x, got, want)
		}
		return true
	case a%8 == 6 && b%4 == 2 && n > 6: // batch shrink: two nodes at once
		x, y := NodeID(a>>3)%n, NodeID(b>>2)%n
		if x == y {
			return false
		}
		x, y = min(x, y), max(x, y)
		g.RemoveNodes([]NodeID{x, y})
		m.removeNode(y) // descending, as RemoveNodes processes them
		m.removeNode(x)
		return true
	default:
		u, v := NodeID(a)%n, NodeID(b)%n
		if u == v {
			return false
		}
		if b%3 == 0 {
			if got, want := g.RemoveEdge(u, v), m.removeEdge(u, v); got != want {
				t.Fatalf("RemoveEdge(%d,%d) = %v, model got %v", u, v, got, want)
			}
		} else {
			if got, want := g.AddEdge(u, v), m.addEdge(u, v); got != want {
				t.Fatalf("AddEdge(%d,%d) = %v, model got %v", u, v, got, want)
			}
		}
		return false
	}
}

// checkRows is the cheap form of checkAgainstModel run after every op:
// edge count and every sorted row, without the all-pairs HasEdge sweep.
func checkRows(t *testing.T, g *Graph, m *modelGraph, copyIdx int) {
	t.Helper()
	if g.NumNodes() != len(m.adj) || g.NumEdges() != m.edges {
		t.Fatalf("copy %d: graph %v, model has %d nodes / %d edges", copyIdx, g, len(m.adj), m.edges)
	}
	for n := NodeID(0); int(n) < len(m.adj); n++ {
		if got, want := g.NeighborsView(n), m.neighbors(n); !slices.Equal(got, want) {
			t.Fatalf("copy %d: row %d = %v, model has %v", copyIdx, n, got, want)
		}
	}
}

// FuzzGraphModel drives the sorted-slice core against the map-based
// reference under arbitrary AddEdge/RemoveEdge/AddNode/RemoveNode/
// RemoveNodes sequences: degrees, HasEdge answers, sorted neighbor sets,
// edge counts and the swap-with-last renumbering must agree at every
// checkpoint and at the end of the sequence, and the incremental footprint
// must equal a full walk after every op.
//
// Some ops copy the graph — Clone, or Freeze then Thaw — and the copy gets
// a model of its own; later ops mutate any copy. Copies share one backing
// array per copy with full-capacity rows, so the first insert into a row
// relocates it: after every op, every copy must still equal its own model.
func FuzzGraphModel(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x07, 0x00, 0x05, 0x06})
	f.Add([]byte{0xff, 0xfe, 0x00, 0x03, 0x30, 0x21, 0x12, 0x03})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x00, 0x21, 0x05, 0x45, 0x01, 0x61, 0x03, 0x0e, 0x06, 0x24, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		graphs := []*Graph{New(8)}
		models := []*modelGraph{newModel(8)}
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			k := int(a>>6) % len(graphs) // the copy this op acts on
			g, m := graphs[k], models[k]
			if a%8 == 5 && b%8 < 2 { // copy, rarely
				if len(graphs) < 4 {
					c := g.Clone()
					if b%8 == 1 {
						c = g.Freeze().Thaw()
					}
					graphs, models = append(graphs, c), append(models, m.clone())
				}
			} else if applyModelOp(t, g, m, a, b) {
				checkAgainstModel(t, g, m)
			}
			for j := range graphs {
				checkRows(t, graphs[j], models[j], j)
				checkFootprint(t, graphs[j], "model op")
			}
		}
		for j := range graphs {
			checkAgainstModel(t, graphs[j], models[j])
		}
	})
}

// TestGraphMatchesModelRandomOps is the seeded always-on form of the fuzz
// property, so plain `go test` exercises long random op sequences too.
func TestGraphMatchesModelRandomOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(12)
		m := newModel(12)
		for op := 0; op < 600; op++ {
			a, b := byte(rng.Intn(256)), byte(rng.Intn(256))
			applyModelOp(t, g, m, a, b)
			checkFootprint(t, g, "model op")
			if op%97 == 0 {
				checkAgainstModel(t, g, m)
			}
		}
		checkAgainstModel(t, g, m)
	}
}

// TestMemFootprintIncrementalMatchesWalk drives random AddEdge, RemoveEdge,
// AddNode, RemoveNodes, Clone and Freeze→Thaw sequences and asserts after
// every step that the O(1) footprint equals the reference walk, on the
// original and on every copy (which keeps mutating independently).
func TestMemFootprintIncrementalMatchesWalk(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs := []*Graph{New(16)}
		checkFootprint(t, graphs[0], "New")
		for op := 0; op < 2000; op++ {
			g := graphs[rng.Intn(len(graphs))]
			n := g.NumNodes()
			var name string
			switch r := rng.Intn(100); {
			case r < 45:
				name = "AddEdge"
				if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
					g.AddEdge(u, v)
				}
			case r < 75:
				name = "RemoveEdge"
				if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
					g.RemoveEdge(u, v)
				}
			case r < 85:
				name = "AddNode"
				g.AddNode()
			case r < 95:
				name = "RemoveNodes"
				if n <= 6 {
					continue
				}
				var nodes []NodeID
				for x := 0; x < n && len(nodes) < 3; x++ {
					if rng.Intn(n) < 2 {
						nodes = append(nodes, NodeID(x))
					}
				}
				g.RemoveNodes(nodes)
			case r < 98:
				name = "Clone"
				if len(graphs) < 6 {
					c := g.Clone()
					checkFootprint(t, c, "Clone (copy)")
					graphs = append(graphs, c)
				}
			default:
				name = "Thaw"
				if len(graphs) < 6 {
					c := g.Freeze().Thaw()
					checkFootprint(t, c, "Thaw (copy)")
					graphs = append(graphs, c)
				}
			}
			checkFootprint(t, g, name)
		}
		for _, g := range graphs {
			checkFootprint(t, g, "end of sequence")
		}
	}
}

// TestRemoveNodeReleasesVacatedSlot pins that swap-with-last leaves no
// pointer behind in the spine's hidden tail: the slot the moved row left
// must be nil, or it would keep that row's old backing array reachable
// after a later insert reallocates the row.
func TestRemoveNodeReleasesVacatedSlot(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.RemoveNode(0) // node 3 moves to slot 0
	if hidden := g.adj[:4][3]; hidden != nil {
		t.Fatalf("vacated slot still holds row %v", hidden)
	}
}

// TestThawLeavesFrozenIntact pins that Thaw copies: mutating one thawed
// graph — inserts into full rows, removals, node removals — must not reach
// the snapshot, so a later Thaw still equals the graph that was frozen.
func TestThawLeavesFrozenIntact(t *testing.T) {
	g := New(12)
	rng := rand.New(rand.NewSource(1))
	for range 40 {
		if u, v := NodeID(rng.Intn(12)), NodeID(rng.Intn(12)); u != v {
			g.AddEdge(u, v)
		}
	}
	want := g.Edges()
	f := g.Freeze()
	a := f.Thaw()
	for u := NodeID(0); u < 11; u++ {
		a.AddEdge(u, u+1)
		a.RemoveEdge(u, (u+5)%12)
	}
	a.RemoveNodes([]NodeID{2, 7})
	b := f.Thaw()
	if b.NumNodes() != 12 || !slices.Equal(b.Edges(), want) {
		t.Fatalf("a mutation of one thawed graph reached the snapshot: %v, edges %v, want %v", b, b.Edges(), want)
	}
	checkFootprint(t, b, "Thaw")
}

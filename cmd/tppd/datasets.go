package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// datasetCacheBytes bounds the frozen adjacency the dataset cache holds, per
// process. It sits outside -mem-budget, which accounts live sessions only.
// The default dataset cap (defaultMaxScale, about 3M DBLP edges) freezes to
// some 29 MiB, so any dataset a default server admits fits.
const datasetCacheBytes = 64 << 20

// datasetKey names one generated graph. scale is the effective node count,
// after the default and DBLPSim's clamp, so every spelling of the same
// graph shares an entry; it is 0 for datasets with a fixed size.
type datasetKey struct {
	name  string
	scale int
	seed  int64
}

// datasetCache keeps generated dataset graphs as immutable graph.Frozen
// snapshots, so a create from a dataset costs a copy instead of a
// regeneration. Entries are evicted oldest first to stay within capBytes; a
// dataset whose snapshot alone exceeds capBytes is never kept. The
// generators are deterministic, so a cached graph is the graph a fresh
// generation would return.
type datasetCache struct {
	capBytes int64

	mu    sync.Mutex
	m     map[datasetKey]*graph.Frozen // guarded by mu
	order []datasetKey                 // guarded by mu; insertion order, oldest first
	bytes int64                        // guarded by mu; Σ Bytes over m
}

func newDatasetCache(capBytes int64) *datasetCache {
	return &datasetCache{capBytes: capBytes, m: make(map[datasetKey]*graph.Frozen)}
}

// graph returns a fresh graph for key, thawed from the cache or made by
// generate. Generation runs outside the lock; when two callers race on a
// miss, both generate and the first insert wins.
func (c *datasetCache) graph(key datasetKey, generate func() *graph.Graph) *graph.Graph {
	c.mu.Lock()
	f := c.m[key]
	c.mu.Unlock()
	if f != nil {
		return f.Thaw()
	}
	g := generate()
	c.add(key, g.Freeze())
	return g
}

func (c *datasetCache) add(key datasetKey, f *graph.Frozen) {
	size := f.Bytes()
	if size > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for c.bytes+size > c.capBytes {
		old := c.order[0]
		c.order = c.order[1:]
		c.bytes -= c.m[old].Bytes()
		delete(c.m, old)
	}
	c.m[key] = f
	c.order = append(c.order, key)
	c.bytes += size
}

// graphFromDataset materialises a server-side dataset through cache. Dataset
// graphs are labelled by their decimal node IDs.
func graphFromDataset(spec *datasetSpec, cache *datasetCache) (*graph.Graph, *graph.Labeling, error) {
	key := datasetKey{seed: spec.Seed}
	if key.seed == 0 {
		key.seed = 1
	}
	var generate func() *graph.Graph
	switch spec.Name {
	case "arenas-email", "arenas-email-sim":
		key.name = "arenas-email"
		generate = func() *graph.Graph { return datasets.ArenasEmailSim(key.seed).Graph }
	case "dblp", "dblp-sim":
		key.name = "dblp"
		key.scale = spec.Scale
		if key.scale == 0 {
			key.scale = 2000
		}
		key.scale = max(key.scale, 8) // DBLPSim's own floor
		generate = func() *graph.Graph { return datasets.DBLPSim(key.scale, key.seed).Graph }
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want arenas-email or dblp)", spec.Name)
	}
	g := cache.graph(key, generate)
	return g, labelingFrom(nil, g.NumNodes()), nil
}

// labelingFrom rebuilds a session's label mapping from a snapshot's label
// table (node-ID order). An absent table synthesises the decimal labels of
// the server-side datasets: their names share one string buffer, and being
// identity names they need no inverse map.
func labelingFrom(names []string, n int) *graph.Labeling {
	lab := &graph.Labeling{ToName: make([]string, n)}
	if len(names) == n && n > 0 {
		for i, name := range names {
			lab.Bind(graph.NodeID(i), name)
		}
		return lab
	}
	var b strings.Builder
	b.Grow(n * len(strconv.Itoa(n)))
	var digits [20]byte
	for i := range n {
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	all, off := b.String(), 0
	for i := range lab.ToName {
		end := off + len(strconv.AppendInt(digits[:0], int64(i), 10))
		lab.ToName[i] = all[off:end]
		off = end
	}
	return lab
}

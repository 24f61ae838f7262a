package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestNegativeDatasetScaleRejected pins that a negative dataset scale is
// the client's mistake on both graph-carrying endpoints, not a request for
// DBLPSim's 8-node floor.
func TestNegativeDatasetScaleRejected(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	req := protectRequest{Dataset: &datasetSpec{Name: "dblp", Scale: -5}, SampleTargets: 1}
	for _, path := range []string{"/v1/protect", "/v1/sessions"} {
		resp, body := doJSON(t, http.MethodPost, ts.URL+path, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, body)
		}
		var out errorResponse
		if err := json.Unmarshal(body, &out); err != nil || out.Error == "" {
			t.Fatalf("%s: malformed error body: %s", path, body)
		}
	}
}

// cacheState reads the cache's entry count and byte total under its lock.
func cacheState(c *datasetCache) (entries int, bytes int64, order []datasetKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.bytes, slices.Clone(c.order)
}

func dblpGenerator(scale int, seed int64) func() *graph.Graph {
	return func() *graph.Graph { return datasets.DBLPSim(scale, seed).Graph }
}

// TestDatasetCacheBound checks the cache against its cap: a hit thaws the
// graph a fresh generation would give, entries are evicted oldest first so
// the total never exceeds the cap, and a dataset bigger than the cap is
// generated but never kept.
func TestDatasetCacheBound(t *testing.T) {
	one := datasets.DBLPSim(300, 1).Graph.Freeze().Bytes()
	c := newDatasetCache(2*one + one/2) // room for two of the 300-node graphs
	keys := []datasetKey{{"dblp", 300, 1}, {"dblp", 300, 2}, {"dblp", 300, 3}}
	for _, k := range keys {
		c.graph(k, dblpGenerator(k.scale, k.seed))
		if _, b, _ := cacheState(c); b > c.capBytes {
			t.Fatalf("after %v: cache holds %d bytes over its cap %d", k, b, c.capBytes)
		}
	}
	if n, _, order := cacheState(c); n != 2 || !slices.Equal(order, keys[1:]) {
		t.Fatalf("cache holds %d entries in order %v, want the two newest %v", n, order, keys[1:])
	}
	got := c.graph(keys[2], func() *graph.Graph { t.Fatal("cached dataset regenerated"); return nil })
	if want := datasets.DBLPSim(300, 3).Graph; !slices.Equal(got.Edges(), want.Edges()) || got.NumNodes() != want.NumNodes() {
		t.Fatalf("thawed graph %v differs from a fresh generation %v", got, want)
	}

	big := datasetKey{"dblp", 2000, 1}
	c.graph(big, dblpGenerator(big.scale, big.seed))
	if n, b, order := cacheState(c); n != 2 || b > c.capBytes || slices.Contains(order, big) {
		t.Fatalf("over-cap dataset changed the cache: %d entries, %d bytes, order %v", n, b, order)
	}
}

// request is doJSON for goroutines other than the test's own: it reports
// failures as errors instead of calling t.Fatal.
func request(method, url string, payload any) (int, []byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// scrubbed re-encodes a JSON object without the fields that differ between
// two incarnations of one session by design: its id, creation time and
// wall-clock timing. Everything else must match byte for byte.
func scrubbed(body []byte) (string, error) {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return "", fmt.Errorf("decoding %s: %w", body, err)
	}
	delete(v, "id")
	delete(v, "created")
	delete(v, "elapsed_ms")
	out, err := json.Marshal(v)
	return string(out), err
}

// createAndProbe creates a session from create and returns its id and its
// scrubbed GET and first protect bodies.
func createAndProbe(base string, create protectRequest) (id, read, protect string, err error) {
	code, body, err := request(http.MethodPost, base+"/v1/sessions", create)
	if err != nil || code != http.StatusCreated {
		return "", "", "", fmt.Errorf("create: status %d, %v: %s", code, err, body)
	}
	var info sessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		return "", "", "", err
	}
	code, body, err = request(http.MethodGet, base+"/v1/sessions/"+info.ID, nil)
	if err != nil || code != http.StatusOK {
		return "", "", "", fmt.Errorf("read: status %d, %v: %s", code, err, body)
	}
	if read, err = scrubbed(body); err != nil {
		return "", "", "", err
	}
	code, body, err = request(http.MethodPost, base+"/v1/sessions/"+info.ID+"/protect", sessionProtectRequest{})
	if err != nil || code != http.StatusOK {
		return "", "", "", fmt.Errorf("protect: status %d, %v: %s", code, err, body)
	}
	if protect, err = scrubbed(body); err != nil {
		return "", "", "", err
	}
	return info.ID, read, protect, nil
}

// TestDatasetCacheSharedAcrossSessions races creates of one dataset — the
// cache's miss path, where every creator may generate and the first insert
// wins, and its hit path, where creators thaw the shared snapshot — then
// churns nodes on the first session. A later create must read and protect
// byte for byte like the first pass: no session's mutations reach the
// cached graph. Run under -race, it also checks the cache's locking.
func TestDatasetCacheSharedAcrossSessions(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 4
	srv, ts := startTestServer(t, cfg)
	spec := datasetSpec{Name: "dblp", Scale: 600, Seed: 5}
	create := protectRequest{Dataset: &spec, SampleTargets: 4}

	const creators = 4
	ids, reads, protects := make([]string, creators), make([]string, creators), make([]string, creators)
	var wg sync.WaitGroup
	for i := range creators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if ids[i], reads[i], protects[i], err = createAndProbe(ts.URL, create); err != nil {
				t.Errorf("creator %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < creators; i++ {
		if reads[i] != reads[0] || protects[i] != protects[0] {
			t.Fatalf("creator %d saw a different session than creator 0:\nread %s\nvs   %s\nprotect %s\nvs      %s",
				i, reads[i], reads[0], protects[i], protects[0])
		}
	}

	// Node churn on the first session, mirrored client-side for its labels.
	g, lab, err := graphFromDataset(&spec, newDatasetCache(datasetCacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	var info sessionResponse
	if err := json.Unmarshal([]byte(reads[0]), &info); err != nil {
		t.Fatal(err)
	}
	var targets []graph.Edge
	for _, tg := range info.Targets {
		u, _ := lab.ID(tg[0])
		v, _ := lab.ID(tg[1])
		targets = append(targets, graph.NewEdge(u, v))
	}
	labels := slices.Clone(lab.ToName)
	rates := gen.ChurnRates{EdgeInsert: 0.3, EdgeRemove: 0.2, NodeArrive: 0.2, NodeDepart: 0.3}
	churn := gen.NewMutationChurn(g, targets, rates, rand.New(rand.NewSource(3)))
	departures := 0
	for batch := range 30 {
		m := churn.Next(6)
		if dynamic.Delta(m).Empty() {
			continue
		}
		pairs := func(es []graph.Edge) [][2]string {
			out := make([][2]string, len(es))
			for i, e := range es {
				out[i] = [2]string{labels[e.U], labels[e.V]}
			}
			return out
		}
		var req deltaRequest
		for j := range m.AddNodes {
			name := "arrival-" + strconv.Itoa(batch) + "-" + strconv.Itoa(j)
			req.AddNodes = append(req.AddNodes, name)
			labels = append(labels, name)
		}
		req.Insert, req.Remove = pairs(m.Insert), pairs(m.Remove)
		for j := len(m.RemoveNodes) - 1; j >= 0; j-- { // swap-with-last, descending
			x, last := m.RemoveNodes[j], len(labels)-1
			req.RemoveNodes = append(req.RemoveNodes, labels[x])
			labels[x] = labels[last]
			labels = labels[:last]
			departures++
		}
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[0]+"/delta", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: delta status %d: %s", batch, resp.StatusCode, body)
		}
	}
	if departures == 0 {
		t.Fatal("churn removed no node; the test exercises nothing")
	}

	_, read, protect, err := createAndProbe(ts.URL, create)
	if err != nil {
		t.Fatal(err)
	}
	if read != reads[0] || protect != protects[0] {
		t.Fatalf("a create after churn differs from the first pass:\nread %s\nvs   %s\nprotect %s\nvs      %s",
			read, reads[0], protect, protects[0])
	}
	if n, b, _ := cacheState(srv.datasets); n != 1 || b > srv.datasets.capBytes {
		t.Fatalf("cache holds %d entries / %d bytes (cap %d), want the one dataset", n, b, srv.datasets.capBytes)
	}
}

// BenchmarkSessionCreateDataset measures one session create from a cached
// server-side dataset — evolve-large's create: DBLP(20000), Rectangle, 384
// sampled targets — through the server's handler in process, so B/op and
// allocs/op count the handler and the library without a network client.
// The cache is warmed before the timer starts; each session is deleted
// with the timer stopped, so the store does not grow across iterations.
func BenchmarkSessionCreateDataset(b *testing.B) {
	srv := mustNewServer(b, testConfig())
	h := srv.Handler()
	body, err := json.Marshal(protectRequest{
		Dataset: &datasetSpec{Name: "dblp", Scale: 20000, Seed: 1}, SampleTargets: 384, Pattern: "Rectangle",
	})
	if err != nil {
		b.Fatal(err)
	}
	serve := func(method, path string, payload []byte) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(payload)))
		if w.Code/100 != 2 {
			b.Fatalf("%s %s: status %d: %s", method, path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	create := func() string {
		var info sessionResponse
		if err := json.Unmarshal(serve(http.MethodPost, "/v1/sessions", body), &info); err != nil {
			b.Fatal(err)
		}
		return info.ID
	}
	serve(http.MethodDelete, "/v1/sessions/"+create(), nil) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		id := create()
		b.StopTimer()
		serve(http.MethodDelete, "/v1/sessions/"+id, nil)
		b.StartTimer()
	}
}

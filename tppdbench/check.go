package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/tpp"
)

// protectBody is the part of tppd's protect response the checks read.
type protectBody struct {
	Targets           [][2]string `json:"targets"`
	Protectors        [][2]string `json:"protectors"`
	InitialSimilarity int         `json:"initial_similarity"`
	FinalSimilarity   int         `json:"final_similarity"`
	FullProtection    bool        `json:"full_protection"`
	SimilarityTrace   []int       `json:"similarity_trace"`
	ReleasedEdges     [][2]string `json:"released_edges"`
}

// infoBody is the part of tppd's session response the checks read.
type infoBody struct {
	Nodes         int         `json:"nodes"`
	Edges         int         `json:"edges"`
	Targets       [][2]string `json:"targets"`
	DeltasApplied int         `json:"deltas_applied"`
}

// checkTrace verifies what every protect response must satisfy on its
// own: the similarity trace starts at the initial similarity, never
// rises, has one step per protector and ends at the final similarity, and
// full protection is claimed exactly when that is zero.
func checkTrace(p *protectBody) error {
	tr := p.SimilarityTrace
	if len(tr) != len(p.Protectors)+1 {
		return fmt.Errorf("trace has %d entries for %d protectors", len(tr), len(p.Protectors))
	}
	if tr[0] != p.InitialSimilarity || tr[len(tr)-1] != p.FinalSimilarity {
		return fmt.Errorf("trace ends %d..%d, response says %d..%d", tr[0], tr[len(tr)-1], p.InitialSimilarity, p.FinalSimilarity)
	}
	for i := 1; i < len(tr); i++ {
		if tr[i] > tr[i-1] {
			return fmt.Errorf("trace rises at step %d: %d -> %d", i, tr[i-1], tr[i])
		}
	}
	if p.FullProtection != (p.FinalSimilarity == 0) {
		return fmt.Errorf("full_protection %v with final similarity %d", p.FullProtection, p.FinalSimilarity)
	}
	return nil
}

// checkReleased verifies a Triangle protect response against its released
// graph: neither targets nor protectors appear in it, and an independent
// recount of the triangles each target still closes — the common
// neighbours of its endpoints in the released graph — sums to the reported
// final similarity.
func checkReleased(p *protectBody) error {
	adj := make(map[string]map[string]bool)
	link := func(a, b string) {
		if adj[a] == nil {
			adj[a] = make(map[string]bool)
		}
		adj[a][b] = true
	}
	for _, e := range p.ReleasedEdges {
		link(e[0], e[1])
		link(e[1], e[0])
	}
	for _, t := range p.Targets {
		if adj[t[0]][t[1]] {
			return fmt.Errorf("target %v present in the released graph", t)
		}
	}
	for _, e := range p.Protectors {
		if adj[e[0]][e[1]] {
			return fmt.Errorf("protector %v present in the released graph", e)
		}
	}
	count := 0
	for _, t := range p.Targets {
		for w := range adj[t[0]] {
			if adj[t[1]][w] {
				count++
			}
		}
	}
	if count != p.FinalSimilarity {
		return fmt.Errorf("released graph closes %d target triangles, response says %d", count, p.FinalSimilarity)
	}
	return nil
}

// verifyInfo compares a session response with the mirror: node, edge and
// target sets and the number of applied deltas.
func (s *session) verifyInfo(body []byte, nodes, edges int, targets [][2]string, deltas int) error {
	var got infoBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding session %s: %w", s.id, err)
	}
	if got.Nodes != nodes || got.Edges != edges || got.DeltasApplied != deltas {
		return fmt.Errorf("session %s: server has %d nodes, %d edges, %d deltas; mirror has %d, %d, %d",
			s.id, got.Nodes, got.Edges, got.DeltasApplied, nodes, edges, deltas)
	}
	if !slices.Equal(sortedPairs(got.Targets), sortedPairs(targets)) {
		return fmt.Errorf("session %s: server targets differ from the mirror's", s.id)
	}
	return nil
}

// verifyMirror checks a session response against the mirror's current
// state.
func (s *session) verifyMirror(body []byte) error {
	g := s.churn.Graph()
	return s.verifyInfo(body, g.NumNodes(), g.NumEdges(), s.labelPairs(s.churn.Targets()), s.deltas)
}

// checkLive reads every live session of the small-session workloads back
// from the daemon and compares it with the mirror: after the window for
// in-memory workloads, after the SIGKILL restarts for durable ones, so
// every acked delta must be reflected.
func (r *runResult) checkLive(d *daemon) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		md, ok := cl.(*mixClient)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(md *mixClient) {
			defer wg.Done()
			for _, s := range md.live {
				body, err := d.get("/v1/sessions/" + s.id)
				if err == nil {
					err = s.verifyMirror(body)
				}
				if err != nil {
					mu.Lock()
					r.failf("live session check: %v", err)
					mu.Unlock()
				}
			}
		}(md)
	}
	wg.Wait()
}

// protectorPrefix is how many of each client's first acknowledged protects
// protectors_per_run averages. A fixed prefix of a seeded stream makes the
// metric a pure function of the seed and the selections, independent of
// how far a run gets.
const protectorPrefix = 500

// checkOutputs runs the per-workload output checks and computes the mean
// protector count per protect response.
func (r *runResult) checkOutputs() {
	for _, ss := range r.samples {
		for _, s := range ss {
			if s.status != expectStatus[s.op] {
				r.failf("%s %s: status %d", s.req.method, s.req.path, s.status)
			}
		}
	}
	var protects, protectors int
	for _, cl := range r.clients {
		switch d := cl.(type) {
		case *mixClient:
			for i, pr := range d.protects {
				var p protectBody
				err := json.Unmarshal(pr.body, &p)
				if err == nil {
					err = checkTrace(&p)
				}
				if err == nil {
					err = checkReleased(&p)
				}
				if err != nil {
					r.failf("protect on %s: %v", pr.s.id, err)
					continue
				}
				if i < protectorPrefix {
					protects++
					protectors += len(p.Protectors)
				}
			}
		case *evolveClient:
			counts := make(map[*evolveSlot]map[int]int)
			for _, sl := range d.slots {
				counts[sl] = r.checkEvolveSlot(sl)
			}
			for i, p := range d.protects {
				if i == protectorPrefix {
					break
				}
				protects++
				protectors += counts[p.slot][p.round]
			}
		}
	}
	if protects > 0 {
		r.protectors = float64(protectors) / float64(protects)
	}
}

// checkEvolveSlot checks one evolve-large slot: every pass starts from the
// dataset's state and ends in the mirror's final state, every protect
// response is self-consistent, and every completed pass's final protectors
// are bit-identical to a fresh tpp.New on the mirror's final graph. It
// returns the protector count at each protect position of the pass.
func (r *runResult) checkEvolveSlot(sl *evolveSlot) map[int]int {
	sc := sl.sc
	s := sc.final
	labels0 := make([]string, s.g0.NumNodes())
	for i := range labels0 {
		labels0[i] = strconv.Itoa(i)
	}
	initTargets := make([][2]string, len(s.targets0))
	for i, t := range s.targets0 {
		initTargets[i] = [2]string{labels0[t.U], labels0[t.V]}
	}
	for _, body := range sl.initialReads {
		if err := s.verifyInfo(body, s.g0.NumNodes(), s.g0.NumEdges(), initTargets, 0); err != nil {
			r.failf("evolve slot %d initial read: %v", sc.slot, err)
		}
	}
	for _, body := range sl.finalReads {
		if err := s.verifyMirror(body); err != nil {
			r.failf("evolve slot %d final read: %v", sc.slot, err)
		}
	}
	counts := make(map[int]int, len(sl.protectBodies))
	for round, body := range sl.protectBodies {
		var p protectBody
		err := json.Unmarshal(body, &p)
		if err == nil {
			err = checkTrace(&p)
		}
		if err != nil {
			r.failf("evolve slot %d protect %d: %v", sc.slot, round, err)
			continue
		}
		counts[round] = len(p.Protectors)
	}
	if len(sl.finalBodies) == 0 {
		return counts
	}
	fresh, err := tpp.New(s.churn.Graph(), s.churn.Targets(), tpp.WithPattern(s.pattern))
	if err != nil {
		r.failf("evolve slot %d: fresh session on the mirror: %v", sc.slot, err)
		return counts
	}
	res, err := fresh.Run(context.Background())
	if err != nil {
		r.failf("evolve slot %d: fresh run on the mirror: %v", sc.slot, err)
		return counts
	}
	want := s.labelPairs(res.Protectors)
	for pass, body := range sl.finalBodies {
		var p protectBody
		if err := json.Unmarshal(body, &p); err != nil {
			r.failf("evolve slot %d pass %d: %v", sc.slot, pass, err)
			continue
		}
		if !slices.Equal(p.Protectors, want) {
			r.failf("evolve slot %d pass %d: %d final protectors differ from a fresh selection's %d",
				sc.slot, pass, len(p.Protectors), len(want))
		}
	}
	return counts
}

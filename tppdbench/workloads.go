package main

import (
	"math/rand"
	"sync"
)

// workload is one named traffic mix against one tppd configuration.
type workload struct {
	name string
	why  string
	// contract marks the workloads BENCHMARK.json lists; the others run
	// only when asked for by name (or with --workload all).
	contract bool
	// args are tppd's flags besides -addr; dataDir is empty for in-memory
	// workloads.
	args    func(dataDir string) []string
	durable bool
	// prepare does the client-side generation that must not run inside the
	// timed window (evolve-large's scripts) and returns a factory for a
	// fresh, identical set of closed-loop clients.
	prepare func(seed int64) func() []client
}

// clients is the closed-loop client count: the nproc of the capture host.
const clients = 2

var workloads = []*workload{
	{
		name:     "mixed-small",
		contract: true,
		why:      "1000 small Triangle sessions, 5/50/30/10/5 mix: the serving path (codec, locks, GC) dominates",
		args:     func(string) []string { return []string{"-shards", "2"} },
		prepare: func(seed int64) func() []client {
			return func() []client { return mixClients(seed, 1000, [numOps]int{5, 50, 30, 10, 5}, 0) }
		},
	},
	{
		name:     "evolve-large",
		contract: true,
		why:      "4 DBLP(20000) Rectangle sessions under 8-event churn rounds: incremental apply and warm/cold selection on large graphs",
		args:     func(string) []string { return []string{"-shards", "2"} },
		prepare: func(seed int64) func() []client {
			return prepareEvolve(seed, evolveScale, evolveRounds)
		},
	},
	{
		// Outside the contract: on the capture host its throughput spread
		// 0.6 of its median over ten seeds (see README.md).
		name:    "durable-spill",
		why:     "2000 small sessions, Zipf touches, every delta WAL-logged, 4 MiB budget: the durable layer and LRU spill/rehydrate",
		durable: true,
		// -wal-sync is off: on a shared virtual disk an fsync per delta
		// measures the device (its latency swung throughput 2x from run
		// to run), not the code. Snapshot writes still fsync.
		args: func(dir string) []string {
			return []string{"-shards", "2", "-data-dir", dir, "-mem-budget", "4m", "-wal-sync=false"}
		},
		prepare: func(seed int64) func() []client {
			return func() []client { return mixClients(seed, 2000, [numOps]int{5, 60, 20, 10, 5}, zipfS) }
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// mixed-small and durable-spill: many small sessions, a weighted op mix.

// zipfS is durable-spill's session-popularity skew: P(k) ∝ (1+k)^-zipfS
// over a client's session list, so a few sessions stay hot and resident
// while the long tail spills and rehydrates.
const zipfS = 1.1

// mixClient owns a disjoint set of small sessions and draws a weighted
// create/delta/protect/read/delete mix over them.
type mixClient struct {
	seed    int64
	client  int
	rng     *rand.Rand
	weights [numOps]int
	total   int
	zipf    float64 // 0 picks sessions uniformly

	initial int
	minted  int
	live    []*session

	// Kept for the checks after the window.
	protects []protectRecord
}

type protectRecord struct {
	s    *session
	body []byte
}

// minLive keeps a client's session set from draining: deletes are skipped
// (and redrawn) below it.
const minLive = 16

func mixClients(seed int64, sessions int, weights [numOps]int, zipf float64) []client {
	out := make([]client, clients)
	for c := range out {
		d := &mixClient{
			seed: seed, client: c, weights: weights, zipf: zipf,
			rng:     rand.New(rand.NewSource(subSeed(seed, 'm', c, 0))),
			initial: sessions / clients,
		}
		for _, w := range weights {
			d.total += w
		}
		out[c] = d
	}
	return out
}

func (d *mixClient) seedRequests() []*request {
	rs := make([]*request, d.initial)
	for i := range rs {
		s := smallSession(d.seed, d.client, d.minted)
		d.minted++
		d.live = append(d.live, s)
		rs[i] = s.createReq()
	}
	return rs
}

func (d *mixClient) seeded(*request, []byte) {}

// pick chooses the session an op touches.
func (d *mixClient) pick() *session {
	if d.zipf > 0 {
		z := rand.NewZipf(d.rng, d.zipf, 1, uint64(len(d.live)-1))
		return d.live[z.Uint64()]
	}
	return d.live[d.rng.Intn(len(d.live))]
}

func (d *mixClient) next() *request {
	for {
		roll := d.rng.Intn(d.total)
		op := 0
		for roll >= d.weights[op] {
			roll -= d.weights[op]
			op++
		}
		switch op {
		case opCreate:
			s := smallSession(d.seed, d.client, d.minted)
			d.minted++
			d.live = append(d.live, s)
			return s.createReq()
		case opDelete:
			if len(d.live) <= minLive {
				continue
			}
			i := d.rng.Intn(len(d.live))
			s := d.live[i]
			d.live[i] = d.live[len(d.live)-1]
			d.live = d.live[:len(d.live)-1]
			return s.deleteReq()
		case opDelta:
			return d.pick().nextDelta(4)
		case opProtect:
			return d.pick().protectReq(protectWithReleased)
		default:
			return d.pick().readReq()
		}
	}
}

func (d *mixClient) done(r *request, status int, body []byte) {
	if r.op == opProtect && status == 200 {
		d.protects = append(d.protects, protectRecord{s: r.sess, body: body})
	}
}

// ---------------------------------------------------------------------------
// evolve-large: a few large sessions, each running a fixed script of
// delta→protect rounds.

const (
	evolveScale  = 20000
	evolveRounds = 64
	evolveSlots  = 4 // sessions, split evenly across the clients
)

// evolveScript is one session slot's fixed script, generated once before
// any timing. Slot i's session is the dataset {dblp, scale, seed: i+1}
// whatever the benchmark seed, which drives only the churn; so every seed
// measures the same four graphs under different mutation streams. Every pass of the slot creates a fresh incarnation of the
// session from the same dataset and replays the same rounds, so the
// script is finite while the window is not, and every pass must end in the
// same state and the same selection.
type evolveScript struct {
	slot   int
	final  *session   // mirror after every round
	deltas []*request // the rounds' deltas, rendered against pass 0
}

// evolveClient alternates between its slots; each slot walks the pass
// layout create, protect (index build), read, rounds×(delta, protect),
// read, delete.
type evolveClient struct {
	seed  int64
	slots []*evolveSlot
	turn  int

	// protects lists the window's acknowledged protects in send order.
	protects []evolveProtect
}

type evolveProtect struct {
	slot  *evolveSlot
	round int
}

type evolveSlot struct {
	sc   *evolveScript
	pass int
	step int
	cur  *session // the pass's incarnation: id and creation body only

	// Kept for the checks after the window: the first body seen at every
	// protect position (-1 = index build), each completed pass's final
	// protect, and each pass's reads.
	protectBodies map[int][]byte
	finalBodies   [][]byte
	initialReads  [][]byte
	finalReads    [][]byte
}

func (sl *evolveSlot) steps() int { return 3 + 2*len(sl.sc.deltas) + 2 }

// prepareEvolve generates every slot's script in parallel and returns a
// factory for fresh clients over them.
func prepareEvolve(seed int64, scale, rounds int) func() []client {
	scripts := make([]*evolveScript, evolveSlots)
	var wg sync.WaitGroup
	for i := range scripts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scripts[i] = newEvolveScript(seed, i, scale, rounds)
		}(i)
	}
	wg.Wait()
	return func() []client {
		out := make([]client, clients)
		for c := range out {
			d := &evolveClient{seed: seed}
			for i := c; i < evolveSlots; i += clients {
				sl := &evolveSlot{sc: scripts[i], protectBodies: map[int][]byte{}}
				sl.cur = sl.incarnation(seed, 0)
				d.slots = append(d.slots, sl)
			}
			out[c] = d
		}
		return out
	}
}

func newEvolveScript(seed int64, slot, scale, rounds int) *evolveScript {
	sc := &evolveScript{slot: slot}
	s := dblpSession(sessionID(seed, 100+slot, 0), scale, int64(slot+1), subSeed(seed, 'c', 100+slot, 0))
	for r := 0; r < rounds; r++ {
		req := s.nextDelta(8)
		req.round = r
		sc.deltas = append(sc.deltas, req)
	}
	sc.final = s
	return sc
}

// incarnation is the slot's session for one pass: same dataset, fresh id.
func (sl *evolveSlot) incarnation(seed int64, pass int) *session {
	return &session{id: sessionID(seed, 100+sl.sc.slot, pass), create: sl.sc.final.create}
}

// at renders the request at step of the pass layout.
func (sl *evolveSlot) at(step int) *request {
	s := sl.cur
	n := len(sl.sc.deltas)
	switch {
	case step == 0:
		return s.createReq()
	case step == 1:
		return s.protectReq(protectOmitReleased)
	case step == 2:
		return s.readReq()
	case step < 3+2*n:
		i := (step - 3) / 2
		if (step-3)%2 == 0 {
			src := sl.sc.deltas[i]
			return &request{op: opDelta, method: "POST", path: "/v1/sessions/" + s.id + "/delta",
				body: src.body, sess: s, mut: src.mut, added: src.added, round: i}
		}
		r := s.protectReq(protectOmitReleased)
		r.round = i
		return r
	case step == 3+2*n:
		return s.readReq()
	default:
		return s.deleteReq()
	}
}

// advance moves the slot to its next step, starting a new incarnation
// after the delete.
func (sl *evolveSlot) advance(seed int64) {
	sl.step++
	if sl.step == sl.steps() {
		sl.step = 0
		sl.pass++
		sl.cur = sl.incarnation(seed, sl.pass)
	}
}

// seedRequests runs each slot's first create and index-building protect.
func (d *evolveClient) seedRequests() []*request {
	var rs []*request
	for _, sl := range d.slots {
		rs = append(rs, sl.at(0), sl.at(1))
		sl.step = 2
	}
	return rs
}

func (d *evolveClient) seeded(r *request, body []byte) {
	if r.op == opProtect {
		for _, sl := range d.slots {
			if sl.cur == r.sess {
				sl.protectBodies[-1] = body
			}
		}
	}
}

func (d *evolveClient) next() *request {
	sl := d.slots[d.turn%len(d.slots)]
	return sl.at(sl.step)
}

func (d *evolveClient) done(r *request, status int, body []byte) {
	sl := d.slots[d.turn%len(d.slots)]
	d.turn++
	if status == expectStatus[r.op] {
		n := len(sl.sc.deltas)
		switch {
		case r.op == opProtect:
			d.protects = append(d.protects, evolveProtect{sl, r.round})
			if _, ok := sl.protectBodies[r.round]; !ok {
				sl.protectBodies[r.round] = body
			}
			if r.round == n-1 {
				sl.finalBodies = append(sl.finalBodies, body)
			}
		case r.op == opRead && sl.step == 2:
			sl.initialReads = append(sl.initialReads, body)
		case r.op == opRead:
			sl.finalReads = append(sl.finalReads, body)
		}
	}
	sl.advance(d.seed)
}

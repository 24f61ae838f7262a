package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/datasets"
	"repro/internal/durable"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tpp"
)

// span accumulates the time spent in one kind of library call.
type span struct {
	ns int64
	n  int64
}

func (s *span) add(d time.Duration) { s.ns += int64(d); s.n++ }

// meanUS is the span's mean duration in microseconds (0 when it never ran).
func (s *span) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / 1e3
}

// replaySession is the in-process twin of one tppd session.
type replaySession struct {
	pr      *tpp.Protector
	labels  []string
	h       *durable.Session
	created time.Time
}

// replay re-executes the traced window's per-session op stream in-process,
// calling each library layer's public functions from here and timing every
// call, so the per-layer numbers need no tracing inside the program.
type replay struct {
	w        *workload
	store    *durable.Store
	sessions map[string]*replaySession
	stages   *telemetry.Stages
	ctx      context.Context

	lib        [numOps]span // library time per op: tpp, motif, dynamic, datasets
	dur        [numOps]span // durable time per op in the replay's own store
	canon      span         // dynamic Canonicalize+Validate
	events     int          // delta events replayed
	apply      span
	run        span
	protect    span // Run plus Release: a protect's tpp+motif time
	build      span // motif index builds inside Run
	appendSpan span
	touched    []float64
	instances  []float64

	warm, cold, fallbacks int
	compactions           int
	encode, decode        span
	recover               span
	snapBytes             []float64
}

// buildFromCreate materialises a create request's graph, targets and label
// table the way tppd does: edge lists intern labels in first-appearance
// order, datasets name nodes by their decimal id and sample targets with
// seed 1.
func buildFromCreate(c *createBody) (*graph.Graph, []graph.Edge, []string) {
	if c.Dataset != nil {
		g := datasets.DBLPSim(c.Dataset.Scale, c.Dataset.Seed).Graph
		targets := datasets.SampleTargets(g, c.SampleTargets, rand.New(rand.NewSource(1)))
		labels := make([]string, g.NumNodes())
		for i := range labels {
			labels[i] = strconv.Itoa(i)
		}
		return g, targets, labels
	}
	ids := make(map[string]graph.NodeID)
	var labels []string
	intern := func(s string) graph.NodeID {
		id, ok := ids[s]
		if !ok {
			id = graph.NodeID(len(labels))
			ids[s] = id
			labels = append(labels, s)
		}
		return id
	}
	edges := make([]graph.Edge, len(c.Edges))
	for i, e := range c.Edges {
		edges[i] = graph.NewEdge(intern(e[0]), intern(e[1]))
	}
	g := graph.New(len(labels))
	for _, e := range edges {
		g.AddEdgeE(e)
	}
	targets := make([]graph.Edge, len(c.Targets))
	for i, t := range c.Targets {
		targets[i] = graph.NewEdge(ids[t[0]], ids[t[1]])
	}
	return g, targets, labels
}

// create builds the session of a create request; with timed set it counts
// toward the create op's library time.
func (rp *replay) create(r *request, timed bool) error {
	var c createBody
	if err := json.Unmarshal(r.sess.create, &c); err != nil {
		return fmt.Errorf("decoding create body: %w", err)
	}
	pattern, err := motif.ParsePattern(c.Pattern)
	if err != nil {
		return err
	}
	t0 := time.Now()
	g, targets, labels := buildFromCreate(&c)
	pr, err := tpp.New(g, targets, tpp.WithPattern(pattern))
	if err != nil {
		return err
	}
	t1 := time.Now()
	rs := &replaySession{pr: pr, labels: labels, created: t1}
	snap, err := rp.snapshotOf(r.sess.id, rs, 0)
	if err != nil {
		return err
	}
	if rs.h, err = rp.store.Create(snap); err != nil {
		return err
	}
	rp.sessions[r.sess.id] = rs
	if timed {
		rp.lib[opCreate].add(t1.Sub(t0))
		rp.dur[opCreate].add(time.Since(t1))
	}
	return nil
}

func (rp *replay) snapshotOf(id string, rs *replaySession, seq uint64) (*durable.SessionSnapshot, error) {
	st, err := rs.pr.Snapshot(context.Background())
	if err != nil {
		return nil, err
	}
	return &durable.SessionSnapshot{ID: id, Seq: seq, Created: rs.created, Labels: rs.labels, State: st}, nil
}

// pre re-creates a session that existed before the window opened, untimed:
// the set-up created it (and, on evolve-large, ran its index-building
// protect).
func (rp *replay) pre(r *request) error {
	if err := rp.create(r, false); err != nil {
		return err
	}
	if rp.w.name == "evolve-large" {
		_, err := rp.sessions[r.sess.id].pr.Run(context.Background())
		return err
	}
	return nil
}

// op replays one acknowledged request of the window.
func (rp *replay) op(r *request) error {
	if r.op == opCreate {
		return rp.create(r, true)
	}
	rs := rp.sessions[r.sess.id]
	if rs == nil {
		if err := rp.pre(r); err != nil {
			return err
		}
		rs = rp.sessions[r.sess.id]
	}
	switch r.op {
	case opDelta:
		d := dynamic.Delta(*r.mut)
		p := rs.pr.Problem()
		t0 := time.Now()
		cd, err := d.Canonicalize()
		if err == nil {
			err = cd.Validate(p.G, p.Targets)
		}
		rp.canon.add(time.Since(t0))
		if err != nil {
			return err
		}
		rp.events += d.Size()
		t0 = time.Now()
		rep, err := rs.pr.Apply(rp.ctx, d)
		took := time.Since(t0)
		if err != nil {
			return err
		}
		rp.apply.add(took)
		rp.lib[opDelta].add(took)
		if rep.Incremental {
			rp.touched = append(rp.touched, float64(rep.IndexStats.TouchedTargets))
			rp.instances = append(rp.instances, float64(rep.IndexStats.Instances))
		}
		rs.labels = removeLabels(append(rs.labels, r.added...), r.mut.RemoveNodes)
		t1 := time.Now()
		if err := rs.h.AppendDelta(d, r.added); err != nil {
			return err
		}
		rp.appendSpan.add(time.Since(t1))
		if rs.h.ShouldCompact() {
			snap, err := rp.snapshotOf(r.sess.id, rs, rs.h.Seq())
			if err == nil {
				err = rs.h.Compact(snap)
			}
			if err != nil {
				return err
			}
			rp.compactions++
		}
		rp.dur[opDelta].add(time.Since(t1))
	case opProtect:
		pr := rs.pr
		builds, buildNS := pr.IndexBuilds(), pr.IndexBuildTime()
		warm, cold, falls := pr.WarmRuns(), pr.ColdRuns(), pr.WarmFallbacks()
		t0 := time.Now()
		res, err := pr.Run(rp.ctx)
		if err != nil {
			return err
		}
		rp.run.add(time.Since(t0))
		if !slices.Equal(r.body, protectOmitReleased) {
			pr.Release(res)
		}
		took := time.Since(t0)
		rp.protect.add(took)
		rp.lib[opProtect].add(took)
		if n := pr.IndexBuilds() - builds; n > 0 {
			rp.build.ns += int64(pr.IndexBuildTime() - buildNS)
			rp.build.n += int64(n)
		}
		rp.warm += pr.WarmRuns() - warm
		rp.cold += pr.ColdRuns() - cold
		rp.fallbacks += pr.WarmFallbacks() - falls
	case opDelete:
		t0 := time.Now()
		if err := rs.h.Destroy(); err != nil {
			return err
		}
		rp.dur[opDelete].add(time.Since(t0))
		delete(rp.sessions, r.sess.id)
	}
	return nil
}

// finishDurable times snapshot encode/decode and recovery on every session
// left at the end of the replay.
func (rp *replay) finishDurable() error {
	ids := make([]string, 0, len(rp.sessions))
	for id := range rp.sessions {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		rs := rp.sessions[id]
		snap, err := rp.snapshotOf(id, rs, rs.h.Seq())
		if err != nil {
			return err
		}
		t0 := time.Now()
		b := durable.EncodeSnapshot(nil, snap)
		rp.encode.add(time.Since(t0))
		rp.snapBytes = append(rp.snapBytes, float64(len(b)))
		t0 = time.Now()
		if _, err := durable.DecodeSnapshot(b); err != nil {
			return err
		}
		rp.decode.add(time.Since(t0))
		if err := rs.h.Close(); err != nil {
			return err
		}
		t0 = time.Now()
		_, _, h, err := rp.store.Recover(id)
		if err != nil {
			return err
		}
		rp.recover.add(time.Since(t0))
		if err := h.Close(); err != nil {
			return err
		}
	}
	return nil
}

// windowOps returns the window's acknowledged requests in send order
// across clients.
func windowOps(r *runResult) []sample {
	var all []sample
	for _, ss := range r.samples {
		for _, s := range ss {
			if s.status == expectStatus[s.op] {
				all = append(all, s)
			}
		}
	}
	slices.SortStableFunc(all, func(a, b sample) int { return int(a.start - b.start) })
	return all
}

// runReplay replays the traced run's window. Every workload's sessions are
// also persisted, in the replay's own store under dir (WAL appends unsynced,
// as durable-spill's tppd runs), so the durable layer's costs are measured
// on each workload's sessions. Only durable-spill's tppd pays them; the
// server-side durable counters show that.
func runReplay(r *runResult, dir string) (*replay, error) {
	rp := &replay{w: r.w, sessions: map[string]*replaySession{}, stages: telemetry.NewStages(nil)}
	rp.ctx = telemetry.NewContext(context.Background(), rp.stages)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return nil, err
	}
	rp.store = st
	for _, s := range windowOps(r) {
		if err := rp.op(s.req); err != nil {
			return nil, fmt.Errorf("replaying %s %s: %w", s.req.method, s.req.path, err)
		}
	}
	if err := rp.finishDurable(); err != nil {
		return nil, fmt.Errorf("replaying snapshots: %w", err)
	}
	return rp, nil
}

// shardCosts times the session tier's ring lookup and LRU touch over the
// window's session ids, as whole loops (single calls are below the
// clock's resolution).
func shardCosts(ops []sample) (ownerNS, touchNS float64, err error) {
	ids := make([]string, len(ops))
	for i, s := range ops {
		ids[i] = s.req.sess.id
	}
	if len(ids) == 0 {
		return 0, 0, nil
	}
	ring, err := shard.NewRing([]string{"shard-0", "shard-1"}, 0)
	if err != nil {
		return 0, 0, err
	}
	budget := shard.NewBudget(0)
	for _, id := range ids {
		budget.Set(id, tpp.MinSessionBytes, nil)
	}
	const reps = 8
	sink := 0
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		for _, id := range ids {
			sink += ring.OwnerIndex(id)
		}
	}
	ownerNS = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(ids))
	t0 = time.Now()
	for k := 0; k < reps; k++ {
		for _, id := range ids {
			budget.Touch(id)
		}
	}
	touchNS = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(ids))
	ownerSink = sink
	return ownerNS, touchNS, nil
}

// ownerSink keeps the timed ring lookups from being optimised away.
var ownerSink int

// routes maps each op to its tppd route label.
var routes = [numOps]string{
	`POST /v1/sessions`,
	`POST /v1/sessions/{id}/delta`,
	`POST /v1/sessions/{id}/protect`,
	`GET /v1/sessions/{id}`,
	`DELETE /v1/sessions/{id}`,
}

func delta(a, b map[string]float64, key string) float64 { return b[key] - a[key] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer computes the traced run's per-layer metrics. untracedRPS is the
// throughput of the untraced run of the same workload and seed.
func perLayer(r *runResult, untracedRPS float64, buildDir string) (report, error) {
	ops := windowOps(r)
	rp, err := runReplay(r, filepath.Join(buildDir, "replay", fmt.Sprintf("%s-%d", r.w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	rep := report{}
	set := func(name string, v float64, n int) { rep[name] = measured{v, n} }

	var rtt, bytes [numOps][]float64
	throttled, touching := 0, 0
	for _, ss := range r.samples {
		for _, s := range ss {
			if s.status == 429 {
				throttled++
			}
		}
	}
	for _, s := range ops {
		rtt[s.op] = append(rtt[s.op], float64(s.dur.Nanoseconds())/1e3)
		bytes[s.op] = append(bytes[s.op], float64(s.bytes))
		if s.op != opCreate {
			touching++
		}
	}
	b, a := r.before.metrics, r.after.metrics
	for op, name := range opNames {
		key := `{route="` + routes[op] + `"}`
		handler := 1e6 * ratio(delta(b, a, "tppd_request_duration_seconds_sum"+key), delta(b, a, "tppd_request_duration_seconds_count"+key))
		rttUS := mean(rtt[op])
		n := len(rtt[op])
		set("tppd.rtt_us."+name, rttUS, n)
		set("tppd.handler_us."+name, handler, n)
		set("tppd.wire_us."+name, rttUS-handler, n)
		self := handler - rp.lib[op].meanUS()
		if r.w.durable {
			self -= rp.dur[op].meanUS()
		}
		set("tppd.self_us."+name, self, n)
		set("tppd.resp_bytes."+name, mean(bytes[op]), n)
	}
	kops := float64(len(ops)) / 1e3
	cpu := r.after.cpu - r.before.cpu
	set("tppd.throttled", float64(throttled), 0)
	set("tppd.gc_cpu_pct", 100*ratio(float64(r.after.gcCPUns-r.before.gcCPUns), float64(cpu.Nanoseconds())), 0)
	set("tppd.gc_cycles_per_kop", ratio(float64(r.after.gcCycles-r.before.gcCycles), kops), len(ops))
	for _, st := range reportedStages {
		set("tppd.stage."+st.String()+"_us", 1e6*delta(b, a, `tpp_stage_duration_seconds_sum{stage="`+st.String()+`"}`), 0)
		set("stage."+st.String()+"_us", float64(rp.stages.Nanos(st))/1e3, int(rp.stages.Calls(st)))
	}

	set("dynamic.canonicalize_us", rp.canon.meanUS(), int(rp.canon.n))
	set("dynamic.events_per_delta", ratio(float64(rp.events), float64(rp.apply.n)), int(rp.apply.n))
	set("tpp.apply_us", rp.apply.meanUS(), int(rp.apply.n))
	set("tpp.run_us", rp.run.meanUS(), int(rp.run.n))
	set("tpp.warm_hit_ratio", ratio(float64(rp.warm), float64(rp.warm+rp.cold)), rp.warm+rp.cold)
	set("tpp.warm_fallbacks", float64(rp.fallbacks), 0)
	set("motif.build_us", rp.build.meanUS(), int(rp.build.n))
	set("motif.index_builds", float64(rp.build.n), 0)
	set("motif.touched_targets_per_delta", mean(rp.touched), len(rp.touched))
	set("motif.instances", mean(rp.instances), len(rp.instances))

	deltas := float64(len(rtt[opDelta]))
	set("durable.append_us", rp.appendSpan.meanUS(), int(rp.appendSpan.n))
	set("durable.snapshot_encode_us", rp.encode.meanUS(), int(rp.encode.n))
	set("durable.snapshot_decode_us", rp.decode.meanUS(), int(rp.decode.n))
	set("durable.recover_us", rp.recover.meanUS(), int(rp.recover.n))
	set("durable.snapshot_bytes", mean(rp.snapBytes), len(rp.snapBytes))
	set("durable.bytes_written_per_delta", ratio(float64(r.after.writeBytes-r.before.writeBytes), deltas), int(deltas))
	set("durable.snapshots_per_kop", ratio(delta(b, a, "tpp_snapshot_bytes_count"), kops), len(ops))
	set("durable.compactions", float64(rp.compactions), 0)

	ownerNS, touchNS, err := shardCosts(ops)
	if err != nil {
		return nil, err
	}
	rehydrates := delta(b, a, "tpp_sessions_rehydrated_total")
	set("shard.owner_ns", ownerNS, len(ops))
	set("shard.budget_touch_ns", touchNS, len(ops))
	set("shard.spills_per_kop", ratio(delta(r.before.stats, r.after.stats, "sessions_spilled"), kops), len(ops))
	set("shard.rehydrates_per_kop", ratio(rehydrates, kops), len(ops))
	set("shard.resident_hit_ratio", 1-ratio(rehydrates, float64(touching)), touching)
	set("shard.resident_mb", r.after.stats["resident_bytes"]/(1<<20), 0)

	set("layer.library_share_pct.delta", 100*ratio(rp.apply.meanUS(), mean(rtt[opDelta])), len(rtt[opDelta]))
	set("layer.library_share_pct.protect", 100*ratio(rp.protect.meanUS(), mean(rtt[opProtect])), len(rtt[opProtect]))

	tracedRPS := r.throughput()
	set("trace.throughput_rps", tracedRPS, len(ops))
	set("trace.overhead_pct", 100*ratio(untracedRPS-tracedRPS, untracedRPS), 0)
	return rep, nil
}

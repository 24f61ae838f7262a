package main

import (
	"fmt"
	"regexp"
	"slices"
	"time"

	"repro/internal/telemetry"
)

// metricDef is one metric of the benchmark's contract (BENCHMARK.json
// lists the same names, units and directions; a test keeps them equal).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEndDefs are the metrics a user of tppd sees, measured untraced.
var endToEndDefs = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	{"create_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"delta_p50_ms", "ms", "lower", 0.25},
	{"protect_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.2},
	{"protectors_per_run", "count", "lower", 0.25},
}

// ungatedDefs are end-to-end metrics printed beside endToEndDefs but kept
// out of the contract: on a shared 2-core virtual machine their spread
// from run to run exceeds the largest bound the contract allows.
var ungatedDefs = []metricDef{
	{"delta_p99_ms", "ms", "lower", 0},
	{"protect_p99_ms", "ms", "lower", 0},
	{"recovery_s", "s", "lower", 0},
}

// perLayerDefs are the traced run's per-layer metrics.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	var ds []metricDef
	add := func(name, unit, better string) { ds = append(ds, metricDef{name: name, unit: unit, better: better}) }
	for _, op := range opNames {
		add("tppd.rtt_us."+op, "us", "lower")
		add("tppd.handler_us."+op, "us", "lower")
		add("tppd.wire_us."+op, "us", "lower")
		add("tppd.self_us."+op, "us", "lower")
		add("tppd.resp_bytes."+op, "bytes", "lower")
	}
	add("tppd.throttled", "count", "lower")
	add("tppd.gc_cpu_pct", "%", "lower")
	add("tppd.gc_cycles_per_kop", "count", "lower")
	for _, st := range reportedStages {
		add("tppd.stage."+st.String()+"_us", "us", "lower")
	}
	add("dynamic.canonicalize_us", "us", "lower")
	add("dynamic.events_per_delta", "count", "lower")
	add("tpp.apply_us", "us", "lower")
	add("tpp.run_us", "us", "lower")
	add("tpp.warm_hit_ratio", "ratio", "higher")
	add("tpp.warm_fallbacks", "count", "lower")
	for _, st := range reportedStages {
		add("stage."+st.String()+"_us", "us", "lower")
	}
	add("motif.build_us", "us", "lower")
	add("motif.index_builds", "count", "lower")
	add("motif.touched_targets_per_delta", "count", "lower")
	add("motif.instances", "count", "lower")
	add("durable.append_us", "us", "lower")
	add("durable.snapshot_encode_us", "us", "lower")
	add("durable.snapshot_decode_us", "us", "lower")
	add("durable.recover_us", "us", "lower")
	add("durable.snapshot_bytes", "bytes", "lower")
	add("durable.bytes_written_per_delta", "bytes", "lower")
	add("durable.snapshots_per_kop", "count", "lower")
	add("durable.compactions", "count", "lower")
	add("shard.owner_ns", "ns", "lower")
	add("shard.budget_touch_ns", "ns", "lower")
	add("shard.spills_per_kop", "count", "lower")
	add("shard.rehydrates_per_kop", "count", "lower")
	add("shard.resident_hit_ratio", "ratio", "higher")
	add("shard.resident_mb", "MB", "lower")
	add("layer.library_share_pct.delta", "%", "lower")
	add("layer.library_share_pct.protect", "%", "lower")
	add("trace.throughput_rps", "1/s", "higher")
	add("trace.overhead_pct", "%", "lower")
	return ds
}

// reportedStages are the pipeline stages whose time the traced pass
// reports; their names label tpp_stage_duration_seconds. The score stage
// belongs to the recount engine, which no workload selects.
var reportedStages = []telemetry.Stage{telemetry.StageEnumerate, telemetry.StageWarmReplay, telemetry.StageColdSelect, telemetry.StageDeltaApply}

// metricNamePattern is the shape every emitted metric name must have.
var metricNamePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// measured is one reported metric: its value and the number of samples it
// summarises (0 when it is a single reading).
type measured struct {
	value   float64
	samples int
}

// report is a run's metrics by name, printed in catalogue order.
type report map[string]measured

// endToEnd computes the untraced metrics of a run.
func endToEnd(r *runResult) (report, error) {
	rep := report{}
	var lat [numOps][]float64
	var ok, total int
	for _, ss := range r.samples {
		for _, s := range ss {
			total++
			if s.status == expectStatus[s.op] {
				ok++
				lat[s.op] = append(lat[s.op], float64(s.dur)/float64(time.Millisecond))
			}
		}
	}
	if total == 0 || r.elapsed <= 0 {
		return nil, fmt.Errorf("no requests completed in the window")
	}
	rep["throughput_rps"] = measured{r.throughput(), ok}
	cpu := r.after.cpu - r.before.cpu
	rep["server_cpu_us_per_op"] = measured{float64(cpu.Microseconds()) / float64(total), total}
	for _, pc := range []struct {
		name    string
		op      int
		p       float64
		ungated bool // left out, not an error, without enough samples
	}{
		{"create_p50_ms", opCreate, 50, false},
		{"read_p50_ms", opRead, 50, false},
		{"delta_p50_ms", opDelta, 50, false},
		{"delta_p99_ms", opDelta, 99, true},
		{"protect_p50_ms", opProtect, 50, false},
		{"protect_p99_ms", opProtect, 99, true},
	} {
		s := lat[pc.op]
		slices.Sort(s)
		v, err := percentile(s, pc.p)
		switch {
		case err == nil:
			rep[pc.name] = measured{v, len(s)}
		case !pc.ungated:
			return nil, fmt.Errorf("%s: %w", pc.name, err)
		}
	}
	rep["setup_s"] = measured{median(durSeconds(r.setup)), len(r.setup)}
	rep["server_rss_mb"] = measured{float64(r.rssKB) / 1024, 0}
	rep["recovery_s"] = measured{median(durSeconds(r.recovery)), len(r.recovery)}
	rep["protectors_per_run"] = measured{r.protectors, 0}
	return rep, nil
}

// throughput is the window's successful requests per second.
func (r *runResult) throughput() float64 {
	ok := 0
	for _, ss := range r.samples {
		for _, s := range ss {
			if s.status == expectStatus[s.op] {
				ok++
			}
		}
	}
	return float64(ok) / r.elapsed.Seconds()
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

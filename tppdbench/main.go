// Command tppdbench is the repository's benchmark: it starts the commit's
// own tppd on loopback, drives a named, seeded workload through two
// closed-loop clients, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer ones) by name and unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash tppdbench/run.sh --workload mixed-small --seed 1 --seconds 10 --trace 0
//	bash tppdbench/run.sh --workload all --seed 1 --seconds 10 --trace 0 --save results.jsonl
//	bash tppdbench/run.sh --parent parent.jsonl --change change.jsonl
//
// See README.md in this directory for the workloads, the metrics and how
// to read the traced pass.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// An untraced run sets up setupReps times (setup_s is their median) and
// restarts tppd restarts times (recovery_s is their median); medians of
// several keep these short, noisy timings steady.
//
// The hypervisor of a shared virtual machine steals CPU time in episodes,
// and a stolen window reads slow on every timing metric. So an untraced
// run that saw more than quietStealPct stolen is repeated, fresh set-up
// and all, up to attempts times in total, and the attempt with the least
// steal is reported. The choice looks only at the host, never at the
// metrics, so a parent and a change are measured alike.
const (
	setupReps     = 5
	restarts      = 3
	attempts      = 3
	quietStealPct = 3.0
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: mixed-small, evolve-large, durable-spill, or all")
		seed         = flag.Int64("seed", 1, "workload seed; the same seed sends the same requests")
		seconds      = flag.Float64("seconds", 10, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		tppdBin      = flag.String("tppd", "", "tppd binary to measure")
		buildDir     = flag.String("build-dir", ".bench_build", "scratch directory for data directories and the replay")
		save         = flag.String("save", "", "append each result with its environment stamp to this JSON-lines file")
		parent       = flag.String("parent", "", "compare mode: saved results of the parent commit")
		change       = flag.String("change", "", "compare mode: saved results of the change")
	)
	flag.Parse()
	if *parent != "" || *change != "" {
		if err := compare(os.Stdout, "BENCHMARK.json", *parent, *change); err != nil {
			fmt.Fprintln(os.Stderr, "tppdbench:", err)
			return 1
		}
		return 0
	}
	var selected []*workload
	if *workloadName == "all" {
		selected = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "tppdbench: unknown --workload %q\n", *workloadName)
		return 2
	}
	if *tppdBin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "tppdbench: need --tppd, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	dir, err := filepath.Abs(*buildDir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppdbench: build dir:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{
		tppd: *tppdBin, buildDir: dir, seed: *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		setupReps: setupReps, restarts: restarts,
	}
	final := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		res, err := measure(ctx, cfg, w, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tppdbench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(os.Stdout)
		if *save != "" {
			if err := res.save(*save); err != nil {
				fmt.Fprintln(os.Stderr, "tppdbench:", err)
				return 1
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(selected) > 1 {
				name = w.name + "." + name
			}
			final.Metrics[name] = m
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppdbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !final.Correct {
		return 1
	}
	return 0
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line's object.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// outcome is one workload's measured result with its provenance.
type outcome struct {
	result
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Env      envStamp              `json:"env"`
	Ungated  map[string]jsonMetric `json:"ungated,omitempty"`
	Samples  map[string]int        `json:"samples"`
	Failures []string              `json:"failures,omitempty"`
	defs     []metricDef
}

// measure runs one workload. Untraced, it is one run whose end-to-end
// metrics are reported. Traced, it is an untraced run followed by a traced
// run of the same seed, whose window is then replayed in-process; the
// difference in throughput between the two is the tracing overhead.
func measure(ctx context.Context, cfg config, w *workload, traced bool) (*outcome, error) {
	var res *runResult
	var rep report
	var err error
	defs := endToEndDefs
	tries := 1
	if !traced {
		var failures []string
		for ; ; tries++ {
			try, err := runWorkload(ctx, cfg, w, false)
			if err != nil {
				return nil, err
			}
			failures = append(failures, try.failures...)
			if res == nil || try.stealPct < res.stealPct {
				res = try
			}
			if res.stealPct <= quietStealPct || tries == attempts {
				break
			}
		}
		res.failures = failures // a check failed in any attempt fails the run
		if rep, err = endToEnd(res); err != nil {
			return nil, err
		}
	} else {
		defs = perLayerDefs
		cfg.setupReps, cfg.restarts = 1, 1
		base, err := runWorkload(ctx, cfg, w, false)
		if err != nil {
			return nil, err
		}
		if res, err = runWorkload(ctx, cfg, w, true); err != nil {
			return nil, err
		}
		if rep, err = perLayer(res, base.throughput(), cfg.buildDir); err != nil {
			return nil, err
		}
		res.failures = append(base.failures, res.failures...)
	}
	o := &outcome{
		result:   result{Metrics: map[string]jsonMetric{}},
		Workload: w.name,
		Seed:     cfg.seed,
		Env:      stamp(cfg, w, res, tries),
		Samples:  map[string]int{},
		Failures: res.failures,
		defs:     defs,
	}
	for _, ss := range res.samples {
		for _, s := range ss {
			o.Attempted++
			if s.status != expectStatus[s.op] {
				o.Failed++
			}
		}
	}
	o.Correct = len(res.failures) == 0 && o.Failed == 0
	for _, d := range defs {
		m, ok := rep[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		o.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
		o.Samples[d.name] = m.samples
	}
	if !traced {
		o.Ungated = map[string]jsonMetric{}
		for _, d := range ungatedDefs {
			if m, ok := rep[d.name]; ok {
				o.Ungated[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
				o.Samples[d.name] = m.samples
			}
		}
	}
	return o, nil
}

// print writes the human-readable report: the environment stamp, every
// metric with its unit and sample count, and any failed check.
func (o *outcome) print(f *os.File) {
	env, _ := json.Marshal(o.Env) // a struct of plain fields always encodes
	fmt.Fprintf(f, "env %s\n", env)
	status := "all checks passed"
	if !o.Correct {
		status = fmt.Sprintf("%d CHECKS FAILED", len(o.Failures)+o.Failed)
	}
	fmt.Fprintf(f, "workload %s seed %d: %d requests, %d failed, %s\n", o.Workload, o.Seed, o.Attempted, o.Failed, status)
	for _, d := range o.defs {
		m := o.Metrics[d.name]
		n := ""
		if c := o.Samples[d.name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(f, "  %-34s %14.4f %-6s%s\n", d.name, m.Value, m.Unit, n)
	}
	for _, d := range ungatedDefs {
		if m, ok := o.Ungated[d.name]; ok {
			fmt.Fprintf(f, "  %-34s %14.4f %-6s  (n=%d, reported, not gated)\n", d.name, m.Value, m.Unit, o.Samples[d.name])
		}
	}
	for _, msg := range o.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", strings.ReplaceAll(msg, "\n", " "))
	}
}

// save appends the outcome as one JSON line.
func (o *outcome) save(path string) error {
	b, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("saving result: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("saving result: %w", err)
	}
	return f.Close()
}

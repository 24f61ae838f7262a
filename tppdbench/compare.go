package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// contract is BENCHMARK.json: the benchmark's command, workloads and
// metrics with their bounds.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadResults reads a saved results file: workload -> metric -> seed -> value.
func loadResults(path string) (map[string]map[string]map[int64]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]map[int64]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if o.Env.Trace {
			continue
		}
		if out[o.Workload] == nil {
			out[o.Workload] = map[string]map[int64]float64{}
		}
		for name, m := range o.Metrics {
			if out[o.Workload][name] == nil {
				out[o.Workload][name] = map[int64]float64{}
			}
			out[o.Workload][name][o.Seed] = m.Value
		}
	}
	return out, sc.Err()
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// verdict classifies a change against its parent on one metric:
//
//   - better: at least minPairs seed-matched pairs, the change wins at least
//     9/10 of them, and the medians differ by more than the parent's
//     interquartile range;
//   - unresolved: the parent's own spread exceeds the bound, unless every
//     change run is better than every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - within bound: otherwise.
func verdict(parent, change map[int64]float64, lowerBetter bool, bound float64) (winFrac float64, v string) {
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	var pv, cv []float64
	wins, pairs := 0, 0
	for seed, p := range parent {
		pv = append(pv, p)
		if c, ok := change[seed]; ok {
			pairs++
			if better(c, p) {
				wins++
			}
		}
	}
	for _, c := range change {
		cv = append(cv, c)
	}
	if len(pv) == 0 || len(cv) == 0 {
		return 0, "unresolved"
	}
	winFrac = ratio(float64(wins), float64(pairs))
	mp, mc := median(pv), median(cv)
	q1, q3 := quartiles(pv)
	iqr := q3 - q1
	worse := (mc - mp) / mp
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs >= minPairs && winFrac >= 0.9 && better(mc, mp) && math.Abs(mc-mp) > iqr:
		return winFrac, "better"
	case iqr/mp > bound && !allBetter:
		return winFrac, "unresolved"
	case worse > bound:
		return winFrac, "worse"
	}
	return winFrac, "within bound"
}

// compare prints, per workload and end-to-end metric, both sides' median
// and quartiles, the pair win fraction and the verdict.
func compare(w io.Writer, contractPath, parentPath, changePath string) error {
	if parentPath == "" || changePath == "" {
		return fmt.Errorf("compare mode needs both --parent and --change")
	}
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("%s: %w", contractPath, err)
	}
	parent, err := loadResults(parentPath)
	if err != nil {
		return err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return err
	}
	for _, wl := range workloads { // durable-spill too: it is compared when results hold it
		np, nc := len(parent[wl.name]["throughput_rps"]), len(change[wl.name]["throughput_rps"])
		if np == 0 && nc == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (parent runs %d, change runs %d)\n", wl.name, np, nc)
		fmt.Fprintf(w, "  %-22s %-34s %-34s %5s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
		for _, m := range c.EndToEnd {
			p, ch := parent[wl.name][m.Name], change[wl.name][m.Name]
			win, v := verdict(p, ch, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "  %-22s %-34s %-34s %5.2f  %s (bound %.0f%%)\n", m.Name, summary(p, m.Unit), summary(ch, m.Unit), win, v, 100*m.Bound)
		}
	}
	return nil
}

func summary(vals map[int64]float64, unit string) string {
	if len(vals) == 0 {
		return "-"
	}
	var vs []float64
	for _, v := range vals {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g]", median(vs), unit, q1, q3)
}

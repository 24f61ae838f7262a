package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	tppd      string
	buildDir  string // absolute; data directories live under it
	seed      int64
	window    time.Duration
	setupReps int // set-ups per run; setup_s is their median
	restarts  int // SIGKILL+restart cycles; recovery_s is their median
}

// serverSnap is the daemon's counters at one edge of the window.
type serverSnap struct {
	cpu        time.Duration
	metrics    map[string]float64
	stats      map[string]float64
	writeBytes int64
	gcCycles   int64
	gcCPUns    int64
}

// runResult is everything one run of one workload measured.
type runResult struct {
	w       *workload
	traced  bool
	clients []client
	dataDir string

	setup    []time.Duration
	samples  [][]sample
	elapsed  time.Duration
	before   serverSnap
	after    serverSnap
	rssKB    int64
	procs    int     // tppd's GOMAXPROCS
	stealPct float64 // share of the host's CPU time stolen by the hypervisor during the window
	recovery []time.Duration

	failures   []string // correctness-check failures
	protectors float64  // mean protectors per protect response
}

func (r *runResult) failf(format string, args ...any) {
	if len(r.failures) < 50 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload boots tppd, seeds it (setupReps times, keeping the last),
// runs the timed window, restarts the daemon to time recovery, and checks
// every output. Checks run after the window, so they cost no measured CPU.
func runWorkload(ctx context.Context, cfg config, w *workload, traced bool) (*runResult, error) {
	newClients := w.prepare(cfg.seed)
	var env []string
	if traced {
		env = []string{"GODEBUG=gctrace=1"}
	}
	res := &runResult{w: w, traced: traced}
	var d *daemon
	defer func() {
		d.kill()
		if res.dataDir != "" {
			_ = os.RemoveAll(res.dataDir) // best effort: the build directory is scratch space
		}
	}()
	var hc *httpClient
	var err error
	for rep := 0; rep < cfg.setupReps; rep++ {
		d.kill()
		if err := res.freshDataDir(cfg, rep); err != nil {
			return nil, err
		}
		res.clients = newClients()
		t0 := time.Now()
		d, err = startDaemon(ctx, cfg.tppd, w.args(res.dataDir), env, "")
		if err != nil {
			return nil, err
		}
		hc = newHTTPClient(d.addr, clients)
		if err := seedAll(hc, res.clients); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		res.setup = append(res.setup, time.Since(t0))
	}

	if res.before, err = snapshot(d, traced); err != nil {
		return nil, err
	}
	cpu0 := hostCPU()
	res.samples, res.elapsed = window(hc, res.clients, cfg.window)
	res.stealPct = stealPct(cpu0, hostCPU())
	if res.after, err = snapshot(d, traced); err != nil {
		return nil, err
	}
	if res.rssKB, err = d.procStatusKB("VmHWM"); err != nil {
		return nil, err
	}
	stats, err := fetchStats(d)
	if err != nil {
		return nil, err
	}
	res.procs = int(stats["max_workers"])
	hc.close()

	// In-memory sessions die with the process, so their state is checked
	// against the mirrors first; durable ones must survive the restarts.
	if !w.durable {
		res.checkLive(d)
	}
	for i := 0; i < cfg.restarts; i++ {
		addr := d.addr
		d.kill()
		d, err = startDaemon(ctx, cfg.tppd, w.args(res.dataDir), env, addr)
		if err != nil {
			return nil, fmt.Errorf("%s restart: %w", w.name, err)
		}
		res.recovery = append(res.recovery, time.Since(d.started))
	}
	if w.durable {
		res.checkLive(d)
	}
	d.kill()
	res.checkOutputs()
	return res, nil
}

// freshDataDir points the run at an empty data directory (durable
// workloads only), removing the previous set-up's.
func (r *runResult) freshDataDir(cfg config, rep int) error {
	if r.dataDir != "" {
		if err := os.RemoveAll(r.dataDir); err != nil {
			return fmt.Errorf("clearing data dir: %w", err)
		}
		r.dataDir = ""
	}
	if !r.w.durable {
		return nil
	}
	r.dataDir = filepath.Join(cfg.buildDir, "data", fmt.Sprintf("%s-%d-%d", r.w.name, os.Getpid(), rep))
	if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
		return fmt.Errorf("creating data dir: %w", err)
	}
	return nil
}

// seedAll sends every client's set-up requests, one goroutine per client.
func seedAll(hc *httpClient, cs []client) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, cl := range cs {
		wg.Add(1)
		go func(i int, cl client) {
			defer wg.Done()
			for _, r := range cl.seedRequests() {
				body, err := hc.mustDo(r)
				if err != nil {
					errs[i] = err
					return
				}
				cl.seeded(r, body)
			}
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshot reads the daemon's CPU time and, for a traced run, its
// exposition, stats, storage writes and GC trace counters.
func snapshot(d *daemon, traced bool) (serverSnap, error) {
	var s serverSnap
	var err error
	if s.cpu, err = d.procCPU(); err != nil {
		return s, err
	}
	if !traced {
		return s, nil
	}
	if s.metrics, err = d.scrapeMetrics(); err != nil {
		return s, err
	}
	if s.stats, err = fetchStats(d); err != nil {
		return s, err
	}
	if s.writeBytes, err = d.procWriteBytes(); err != nil {
		return s, err
	}
	s.gcCycles, s.gcCPUns = d.gcCycles.Load(), d.gcCPUns.Load()
	return s, nil
}

// fetchStats returns the numeric fields of GET /v1/stats.
func fetchStats(d *daemon) (map[string]float64, error) {
	body, err := d.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// hostCPU returns the aggregate "cpu" line of /proc/stat (USER_HZ ticks per
// state), or nil when it cannot be read.
func hostCPU() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, len(f)-1)
	for i, v := range f[1:] {
		out[i], _ = strconv.ParseInt(v, 10, 64) // the kernel writes plain decimals
	}
	return out
}

// stealPct is the share of CPU time the hypervisor stole between two
// hostCPU readings (the eighth state), in percent; -1 when unknown.
func stealPct(a, b []int64) float64 {
	if len(a) < 8 || len(b) != len(a) {
		return -1
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return -1
	}
	return 100 * float64(b[7]-a[7]) / float64(total)
}

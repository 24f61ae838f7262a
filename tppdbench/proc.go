package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one running tppd process on loopback.
type daemon struct {
	args []string // without -addr
	env  []string
	addr string
	bin  string

	cmd     *exec.Cmd
	exited  chan struct{}
	pid     int
	started time.Time

	// Filled by the stderr reader: GC cycles and GC CPU time from
	// GODEBUG=gctrace=1 lines, and the last lines for error reports.
	gcCycles atomic.Int64
	gcCPUns  atomic.Int64
	tailMu   sync.Mutex
	tail     []string
	readDone chan struct{}
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches tppd on addr (a free loopback port when empty, or
// when addr fails) and waits until /v1/healthz answers 200; d.started is
// the launch time.
func startDaemon(ctx context.Context, bin string, args, env []string, addr string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if addr == "" || attempt > 0 {
			a, err := freeAddr()
			if err != nil {
				return nil, err
			}
			addr = a
		}
		d := &daemon{bin: bin, args: args, env: env, addr: addr}
		err := d.start(ctx)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (d *daemon) start(ctx context.Context) error {
	args := append([]string{"-addr", d.addr}, d.args...)
	cmd := exec.Command(d.bin, args...)
	cmd.Env = append(os.Environ(), d.env...)
	// The kernel kills tppd if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return fmt.Errorf("tppd stderr pipe: %w", err)
	}
	d.cmd = cmd
	d.exited = make(chan struct{})
	d.readDone = make(chan struct{})
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting tppd: %w", err)
	}
	d.pid = cmd.Process.Pid
	go d.readStderr(stderr)
	go func() {
		<-d.readDone   // Wait closes the pipe; drain it first
		_ = cmd.Wait() // the daemon is only ever SIGKILLed: its exit status says nothing
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx, 150*time.Second); err != nil {
		d.kill()
		return err
	}
	return nil
}

// waitHealthy polls /v1/healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("tppd exited during start-up: %s", d.lastLines())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("tppd not healthy after %s: %s", limit, d.lastLines())
}

// readStderr consumes tppd's log, counting gctrace lines.
func (d *daemon) readStderr(r io.Reader) {
	defer close(d.readDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if ns, ok := parseGCTrace(line); ok {
			d.gcCycles.Add(1)
			d.gcCPUns.Add(ns)
			continue
		}
		d.tailMu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[len(d.tail)-20:]
		}
		d.tailMu.Unlock()
	}
}

func (d *daemon) lastLines() string {
	d.tailMu.Lock()
	defer d.tailMu.Unlock()
	return strings.Join(d.tail, " | ")
}

// parseGCTrace reads one GODEBUG=gctrace=1 line,
//
//	gc 12 @1.234s 3%: 0.02+1.1+0.01 ms clock, 0.05+0.4/1.0/0.2+0.03 ms cpu, ...
//
// and returns the cycle's GC CPU time: the sum of the "ms cpu" terms
// (sweep termination, assist, background and idle mark, mark termination).
func parseGCTrace(line string) (int64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	i := strings.Index(line, " ms clock, ")
	j := strings.Index(line, " ms cpu")
	if i < 0 || j < i {
		return 0, false
	}
	cpu := line[i+len(" ms clock, ") : j]
	var total float64
	for _, f := range strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' }) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, false
		}
		total += v
	}
	return int64(total * 1e6), true
}

// kill SIGKILLs the daemon and waits for it to be reaped.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited, which <-d.exited then sees
		<-d.exited
	}
}

// procCPU returns the daemon's user+system CPU time so far.
func (d *daemon) procCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return 0, fmt.Errorf("reading tppd stat: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// procStatusKB returns a kB field of /proc/<pid>/status, such as VmHWM.
func (d *daemon) procStatusKB(field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return 0, fmt.Errorf("reading tppd status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line[len(field)+1:])
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in tppd status", field)
}

// procWriteBytes returns the bytes the daemon has caused to be sent to the
// storage layer (/proc/<pid>/io write_bytes).
func (d *daemon) procWriteBytes() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", d.pid))
	if err != nil {
		return 0, fmt.Errorf("reading tppd io: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("no write_bytes in tppd io")
}

// scrapeMetrics fetches /metrics and returns every sample keyed by its
// series spelling, e.g. `tppd_request_duration_seconds_sum{route="GET /v1/sessions/{id}"}`.
func (d *daemon) scrapeMetrics() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client is one closed-loop client's request source. seedRequests lists
// the set-up requests that must succeed before the window opens, each
// answered through seeded. next returns the client's next request (its
// stream is a pure function of the seed); done hands back the outcome, in
// order, before next is called again.
type client interface {
	seedRequests() []*request
	seeded(r *request, body []byte)
	next() *request
	done(r *request, status int, body []byte)
}

// sample is one completed request.
type sample struct {
	op     int
	status int
	start  time.Duration // since the window opened
	dur    time.Duration
	bytes  int
	req    *request
}

// httpClient sends requests to one daemon over keep-alive connections.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(addr string, conns int) *httpClient {
	return &httpClient{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

// do sends r and returns its status (0 on a transport error) and body.
func (c *httpClient) do(r *request) (int, []byte) {
	req, err := http.NewRequest(r.method, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.id != "" {
		req.Header.Set("X-Tppd-Session-Id", r.id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, body
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// mustDo sends a set-up request and fails unless tppd answers as expected.
func (c *httpClient) mustDo(r *request) ([]byte, error) {
	status, body := c.do(r)
	if status != expectStatus[r.op] {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	return body, nil
}

// window runs every client in its own closed loop for d and
// returns each client's samples in send order, plus the wall time from the
// opening of the window to the last completion. A client sends its next
// request only after the previous one completed, and stops at the first
// request it would start after the deadline.
func window(c *httpClient, cs []client, d time.Duration) ([][]sample, time.Duration) {
	out := make([][]sample, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, cl := range cs {
		wg.Add(1)
		go func(i int, cl client) {
			defer wg.Done()
			var ss []sample
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				r := cl.next()
				t0 = time.Now()
				status, body := c.do(r)
				t1 := time.Now()
				cl.done(r, status, body)
				ss = append(ss, sample{op: r.op, status: status, start: t0.Sub(start), dur: t1.Sub(t0), bytes: len(body), req: r})
			}
			out[i] = ss
		}(i, cl)
	}
	wg.Wait()
	end := start
	for _, ss := range out {
		if n := len(ss); n > 0 {
			if e := start.Add(ss[n-1].start + ss[n-1].dur); e.After(end) {
				end = e
			}
		}
	}
	return out, end.Sub(start)
}

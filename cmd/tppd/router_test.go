package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// newRouterFixture spins n live backends and a router over them, health
// already swept (all up). Returns the router, its HTTP server and the
// backend test servers (index-aligned with the ring members).
func newRouterFixture(t *testing.T, n int) (*router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range backends {
		_, ts := startTestServer(t, testConfig())
		backends[i] = ts
		urls[i] = ts.URL
	}
	rt, err := newRouter(urls, slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	rt.checkHealth(t.Context())
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rt, rts, backends
}

// TestRouterSessionAffinity pins the routing contract: the router mints the
// session id, the owning backend honours it, and every follow-up request
// for that id lands on the same backend — verified by asking each backend
// directly.
func TestRouterSessionAffinity(t *testing.T) {
	rt, rts, backends := newRouterFixture(t, 2)

	create := protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}},
		Pattern: "Triangle",
	}
	perBackend := make([]int, len(backends))
	for i := 0; i < 12; i++ {
		resp, body := doJSON(t, http.MethodPost, rts.URL+"/v1/sessions", create)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create via router: status %d: %s", resp.StatusCode, body)
		}
		var info sessionResponse
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if !sessionIDPattern.MatchString(info.ID) {
			t.Fatalf("router-created session id %q has the wrong shape", info.ID)
		}
		ownerIdx := rt.ring.OwnerIndex(info.ID)
		perBackend[ownerIdx]++
		for bi, ts := range backends {
			resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil)
			want := http.StatusNotFound
			if bi == ownerIdx {
				want = http.StatusOK
			}
			if resp.StatusCode != want {
				t.Fatalf("session %s on backend %d: status %d, want %d", info.ID, bi, resp.StatusCode, want)
			}
		}

		// The full session lifecycle works through the router.
		resp, body = doJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+info.ID+"/delta", deltaRequest{
			Insert: [][2]string{{"0", "7"}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta via router: status %d: %s", resp.StatusCode, body)
		}
		resp, body = doJSON(t, http.MethodPost, rts.URL+"/v1/sessions/"+info.ID+"/protect", sessionProtectRequest{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("protect via router: status %d: %s", resp.StatusCode, body)
		}
		resp, body = doJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+info.ID, nil)
		var got sessionResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get via router: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != info.ID {
			t.Fatalf("get via router: id %q, want %q", got.ID, info.ID)
		}
		resp, body = doJSON(t, http.MethodDelete, rts.URL+"/v1/sessions/"+info.ID, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete via router: status %d: %s", resp.StatusCode, body)
		}
		// The delete reached the owner: no backend serves the session now.
		for bi, ts := range backends {
			if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+info.ID, nil); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("deleted session %s on backend %d: status %d, want 404", info.ID, bi, resp.StatusCode)
			}
		}
	}
	// 12 random ids over 2 members: both sides of the ring should see
	// traffic (the balance test proper lives in internal/shard).
	for i, n := range perBackend {
		if n == 0 {
			t.Errorf("backend %d received no sessions out of 12", i)
		}
	}
}

// TestRouterBackendDown pins the pinned-session contract: a dead backend's
// sessions answer 503 + Retry-After (never a silent re-route), keyless work
// flows to the survivors, and the router's readiness follows the fleet's.
func TestRouterBackendDown(t *testing.T) {
	rt, rts, backends := newRouterFixture(t, 2)

	// Find ids owned by each side, then kill backend 0.
	idFor := func(owner int) string {
		for i := 0; ; i++ {
			id := fmt.Sprintf("s-%016x", i)
			if rt.ring.OwnerIndex(id) == owner {
				return id
			}
		}
	}
	backends[0].Close()
	rt.checkHealth(t.Context())

	resp, body := doJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+idFor(0), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead backend's session: status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 for a pinned session lacks Retry-After")
	}
	// A session owned by the live backend still 404s normally (it does not
	// exist), proving the router still forwards to survivors.
	resp, _ = doJSON(t, http.MethodGet, rts.URL+"/v1/sessions/"+idFor(1), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("live backend's unknown session: status %d, want 404", resp.StatusCode)
	}

	// Keyless work keeps flowing to healthy backends.
	for i := 0; i < 3; i++ {
		resp, body = doJSON(t, http.MethodPost, rts.URL+"/v1/protect", protectRequest{
			Edges:   quickstartEdges,
			Targets: [][2]string{{"0", "5"}},
			Pattern: "Triangle",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("one-shot protect with one backend down: status %d: %s", resp.StatusCode, body)
		}
	}

	resp, _ = doJSON(t, http.MethodGet, rts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router readiness with one healthy backend: %d, want 200", resp.StatusCode)
	}

	backends[1].Close()
	rt.checkHealth(t.Context())
	resp, _ = doJSON(t, http.MethodGet, rts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router readiness with the fleet down: %d, want 503", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPost, rts.URL+"/v1/protect", protectRequest{Edges: quickstartEdges, Targets: [][2]string{{"0", "5"}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("keyless work with the fleet down: %d, want 503", resp.StatusCode)
	}
}

// TestRouterStats pins the router-mode stats shape: per-backend health and
// proxied counts.
func TestRouterStats(t *testing.T) {
	_, rts, _ := newRouterFixture(t, 2)
	resp, body := doJSON(t, http.MethodGet, rts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router stats: status %d", resp.StatusCode)
	}
	var st routerStatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "router" || st.HealthyBackends != 2 || len(st.Backends) != 2 {
		t.Fatalf("router stats = %+v, want mode=router with 2 healthy backends", st)
	}
}

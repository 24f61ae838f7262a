package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
)

// durableTestConfig is testConfig persisting sessions into dir, without
// fsync-before-ack.
func durableTestConfig(dir string) Config {
	cfg := testConfig()
	cfg.DataDir = dir
	return cfg
}

// newDurableTestServer starts a service from cfg, which rehydrates whatever
// is already in cfg.DataDir, returning the boot's rehydrated / quarantined
// counts alongside the handles.
func newDurableTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, int, int) {
	t.Helper()
	srv, ts := startTestServer(t, cfg)
	st := srv.metrics.snapshot()
	return srv, ts, int(st.SessionsRehydrated), int(st.SessionsQuarantined)
}

func getStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getSessionInfo(t *testing.T, ts *httptest.Server, id string) sessionResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d: %s", id, resp.StatusCode, body)
	}
	var info sessionResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func mustProtect(t *testing.T, ts *httptest.Server, id, step string) protectResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", step, resp.StatusCode, body)
	}
	var out protectResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustDelta(t *testing.T, ts *httptest.Server, id string, req deltaRequest, step string) deltaResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/delta", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", step, resp.StatusCode, body)
	}
	var out deltaResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func protectParity(t *testing.T, stage string, got, want protectResponse) {
	t.Helper()
	if got.WarmStart != want.WarmStart {
		t.Fatalf("%s: warm_start %v, control %v", stage, got.WarmStart, want.WarmStart)
	}
	if len(got.Protectors) != len(want.Protectors) {
		t.Fatalf("%s: %d protectors, control %d", stage, len(got.Protectors), len(want.Protectors))
	}
	for i := range want.Protectors {
		if got.Protectors[i] != want.Protectors[i] {
			t.Fatalf("%s: protector %d = %v, control %v", stage, i, got.Protectors[i], want.Protectors[i])
		}
	}
	if got.InitialSimilarity != want.InitialSimilarity || got.FinalSimilarity != want.FinalSimilarity {
		t.Fatalf("%s: similarities %d→%d, control %d→%d",
			stage, got.InitialSimilarity, got.FinalSimilarity, want.InitialSimilarity, want.FinalSimilarity)
	}
}

// driveSession applies the deterministic workload every restart-parity test
// shares: a warm-up protect, a structural delta, a protect, a node-churn
// delta.
func driveSession(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	mustProtect(t, ts, id, "warm-up protect")
	mustDelta(t, ts, id, deltaRequest{
		Insert: [][2]string{{"1", "7"}, {"3", "5"}},
		Remove: [][2]string{{"8", "9"}},
	}, "delta 1")
	mustProtect(t, ts, id, "mid protect")
	mustDelta(t, ts, id, deltaRequest{
		AddNodes:   []string{"alice"},
		Insert:     [][2]string{{"alice", "0"}, {"alice", "1"}},
		AddTargets: [][2]string{{"3", "6"}},
	}, "delta 2")
}

// TestDurableRestartParity is the tentpole's end-to-end guarantee: stop a
// server (graceful spill), boot a fresh one on the same directory, and the
// rehydrated session is indistinguishable — same metadata, same selections
// bit for bit — from a control session that lived through the same history
// in memory.
func TestDurableRestartParity(t *testing.T) {
	dir := t.TempDir()

	srvA, tsA, restored, _ := newDurableTestServer(t, durableTestConfig(dir))
	if restored != 0 {
		t.Fatalf("fresh dir rehydrated %d sessions", restored)
	}
	id := createQuickstartSession(t, tsA)
	driveSession(t, tsA, id)
	infoA := getSessionInfo(t, tsA, id)
	tsA.Close()
	srvA.Close() // graceful shutdown: spills the final snapshot

	// The control session replays the same history in one uninterrupted
	// process.
	_, tsC := newSessionTestServer(t, 0)
	ctl := createQuickstartSession(t, tsC)
	driveSession(t, tsC, ctl)

	srvB, tsB, restored, quarantined := newDurableTestServer(t, durableTestConfig(dir))
	if restored != 1 || quarantined != 0 {
		t.Fatalf("restart rehydrated %d / quarantined %d, want 1 / 0", restored, quarantined)
	}
	if got := srvB.metrics.sessionsRehydrated.Load(); got != 1 {
		t.Fatalf("sessions_rehydrated metric = %d, want 1", got)
	}

	infoB := getSessionInfo(t, tsB, id)
	if infoB.Nodes != infoA.Nodes || infoB.Edges != infoA.Edges ||
		infoB.Runs != infoA.Runs || infoB.DeltasApplied != infoA.DeltasApplied ||
		len(infoB.Targets) != len(infoA.Targets) {
		t.Fatalf("rehydrated info %+v, pre-restart %+v", infoB, infoA)
	}
	for i := range infoA.Targets {
		if infoB.Targets[i] != infoA.Targets[i] {
			t.Fatalf("rehydrated target %d = %v, pre-restart %v", i, infoB.Targets[i], infoA.Targets[i])
		}
	}

	// The next protect — and the one after a further shared delta — must
	// match the control bit for bit, warm-start behaviour included.
	protectParity(t, "protect after restart",
		mustProtect(t, tsB, id, "protect after restart"),
		mustProtect(t, tsC, ctl, "control protect"))
	extra := deltaRequest{Insert: [][2]string{{"alice", "2"}}}
	mustDelta(t, tsB, id, extra, "post-restart delta")
	mustDelta(t, tsC, ctl, extra, "control post-restart delta")
	protectParity(t, "protect after shared delta",
		mustProtect(t, tsB, id, "protect after shared delta"),
		mustProtect(t, tsC, ctl, "control protect 2"))
}

// TestDurableLazyRehydrate: TTL eviction spills the session to disk, and
// the next request for its id brings it back transparently — the client
// never sees the eviction.
func TestDurableLazyRehydrate(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(dir)
	cfg.SessionTTL = 50 * time.Millisecond
	srv, ts, _, _ := newDurableTestServer(t, cfg)
	id := createQuickstartSession(t, ts)
	first := mustProtect(t, ts, id, "protect before eviction")

	// Wait for the janitor to spill + evict. Polling the map directly: a GET
	// would itself rehydrate and reset the idle clock.
	deadline := time.Now().Add(5 * time.Second)
	for srv.sessions.open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not evicted before deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}

	info := getSessionInfo(t, ts, id)
	if info.ID != id || info.Nodes != 10 || info.Runs != 1 {
		t.Fatalf("rehydrated session info %+v", info)
	}
	if got := srv.metrics.sessionsRehydrated.Load(); got < 1 {
		t.Fatalf("sessions_rehydrated = %d, want >= 1", got)
	}
	// An unchanged graph warm-starts even across the spill/rehydrate cycle:
	// the warm selection rode the snapshot.
	second := mustProtect(t, ts, id, "protect after rehydrate")
	if !second.WarmStart {
		t.Fatalf("protect after rehydrate did not warm-start: %+v", second)
	}
	protectParity(t, "rehydrated warm replay", protectResponse{
		WarmStart:         true,
		Protectors:        second.Protectors,
		InitialSimilarity: second.InitialSimilarity,
		FinalSimilarity:   second.FinalSimilarity,
	}, protectResponse{
		WarmStart:         true,
		Protectors:        first.Protectors,
		InitialSimilarity: first.InitialSimilarity,
		FinalSimilarity:   first.FinalSimilarity,
	})
	st := getStats(t, ts)
	if st.SessionsRehydrated < 1 {
		t.Fatalf("stats sessions_rehydrated = %d, want >= 1", st.SessionsRehydrated)
	}
}

// TestDurableDeleteRemovesFiles: DELETE destroys the persisted bytes too —
// a deleted session must not resurrect on restart.
func TestDurableDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, durableTestConfig(dir))
	id := createQuickstartSession(t, ts)
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}}}, "delta")
	if !srv.store.Exists(id) {
		t.Fatal("created session has no persisted files")
	}
	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if srv.store.Exists(id) {
		t.Fatal("deleted session still has files on disk")
	}
	// Not lazily rehydratable either.
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
	srv.Close()
	_, _, restored, _ := newDurableTestServer(t, durableTestConfig(dir))
	if restored != 0 {
		t.Fatalf("deleted session resurrected: %d rehydrated", restored)
	}
}

// TestDurableQuarantineOnCorrupt: a damaged snapshot must not take the
// server down — the session is quarantined aside, counted, and everything
// else keeps serving.
func TestDurableQuarantineOnCorrupt(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA, _, _ := newDurableTestServer(t, durableTestConfig(dir))
	sick := createQuickstartSession(t, tsA)
	healthy := createQuickstartSession(t, tsA)
	tsA.Close()
	srvA.Close()

	raw, err := os.ReadFile(filepath.Join(dir, sick+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, sick+".snap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, tsB, restored, quarantined := newDurableTestServer(t, durableTestConfig(dir))
	if restored != 1 || quarantined != 1 {
		t.Fatalf("rehydrated %d / quarantined %d, want 1 / 1", restored, quarantined)
	}
	if got := srvB.metrics.sessionsQuarantined.Load(); got != 1 {
		t.Fatalf("sessions_quarantined metric = %d, want 1", got)
	}
	resp, _ := doJSON(t, http.MethodGet, tsB.URL+"/v1/sessions/"+sick, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("quarantined session answered %d, want 404", resp.StatusCode)
	}
	if info := getSessionInfo(t, tsB, healthy); info.Nodes != 10 {
		t.Fatalf("healthy session damaged by neighbour's quarantine: %+v", info)
	}
	for _, suffix := range []string{".snap", ".wal"} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", sick+suffix)); err != nil {
			t.Fatalf("quarantine copy %s missing: %v", suffix, err)
		}
	}
	if st := getStats(t, tsB); st.SessionsQuarantined != 1 {
		t.Fatalf("stats sessions_quarantined = %d, want 1", st.SessionsQuarantined)
	}
}

// TestDurableCompactionThreshold: the WAL folds into a fresh snapshot at
// the configured threshold, and recovery afterwards replays only the tail.
func TestDurableCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(dir)
	cfg.WALCompact = 2
	srv, ts, _, _ := newDurableTestServer(t, cfg)
	id := createQuickstartSession(t, ts)
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}}}, "delta 1")
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"3", "5"}}}, "delta 2") // triggers compaction
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "9"}}}, "delta 3")
	st := getStats(t, ts)
	if st.WALAppends != 3 {
		t.Fatalf("wal_appends = %d, want 3", st.WALAppends)
	}
	// Create snapshot + compaction snapshot at least.
	if st.SnapshotsWritten < 2 {
		t.Fatalf("snapshots_written = %d, want >= 2", st.SnapshotsWritten)
	}
	if st.SnapshotBytesTotal <= 0 {
		t.Fatalf("snapshot_bytes_total = %d, want > 0", st.SnapshotBytesTotal)
	}
	ts.Close()
	srv.Close()

	// Inspect the store directly: the snapshot watermark moved to 2, so only
	// delta 3 replays.
	store, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, entries, h, err := store.Recover(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// The graceful shutdown spilled a final snapshot at seq 3.
	if snap.Seq != 3 || len(entries) != 0 {
		t.Fatalf("after compaction + spill: watermark %d with %d tail entries, want 3 with 0", snap.Seq, len(entries))
	}
	if snap.Runs != 0 || snap.State.DeltasApplied != 3 {
		t.Fatalf("spilled snapshot carries runs=%d deltas=%d, want 0/3", snap.Runs, snap.State.DeltasApplied)
	}
}

// TestDurableWALFsyncStats: with sync writes on, the fsync histogram and
// stats surface account for every append.
func TestDurableWALFsyncStats(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(dir)
	cfg.WALSync = true
	srv, ts, _, _ := newDurableTestServer(t, cfg)
	id := createQuickstartSession(t, ts)
	mustDelta(t, ts, id, deltaRequest{Insert: [][2]string{{"1", "7"}}}, "delta")
	if got := srv.metrics.walFsync.Count(); got != 1 {
		t.Fatalf("wal fsync count = %d, want 1", got)
	}
	st := getStats(t, ts)
	if st.WALAppends != 1 || st.WALFsyncTotalMS < 0 {
		t.Fatalf("stats wal_appends=%d wal_fsync_total_ms=%f", st.WALAppends, st.WALFsyncTotalMS)
	}
}

// TestShutdownWedgedSession: a session whose slot never frees must not hang
// shutdown — it is skipped after the bounded wait and the others still
// spill.
func TestShutdownWedgedSession(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _, _ := newDurableTestServer(t, durableTestConfig(dir))
	wedgedID := createQuickstartSession(t, ts)
	okID := createQuickstartSession(t, ts)
	srv.sessions.closeTimeout = 100 * time.Millisecond

	// Wedge one session by holding its slot like a stuck handler would.
	rec, err := srv.sessions.acquire(context.Background(), wedgedID)
	if err != nil || rec == nil {
		t.Fatalf("acquire: rec=%v err=%v", rec, err)
	}

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a wedged session")
	}
	// The healthy session was spilled and removed; the wedged one was
	// skipped and is still registered.
	if srv.sessions.open() != 1 {
		t.Fatalf("store holds %d sessions after close, want the 1 wedged", srv.sessions.open())
	}
	if !srv.store.Exists(okID) {
		t.Fatal("healthy session files missing after shutdown spill")
	}
	srv.sessions.release(rec)

	// A later restart serves the healthy session from its shutdown spill and
	// the wedged one from its last snapshot (creation-time here).
	ts.Close()
	_, tsB, restored, quarantined := newDurableTestServer(t, durableTestConfig(dir))
	if restored != 2 || quarantined != 0 {
		t.Fatalf("restart rehydrated %d / quarantined %d, want 2 / 0", restored, quarantined)
	}
	if info := getSessionInfo(t, tsB, okID); info.Nodes != 10 {
		t.Fatalf("healthy session info %+v", info)
	}
}

package main

// Durability wiring: how the daemon uses internal/durable.
//
// Lifecycle, with -data-dir set:
//
//   - create      initial snapshot + empty WAL on disk before the id is
//     handed to the client
//   - delta       appended (and under -wal-sync fsynced) to the WAL before
//     the ack; every -wal-compact entries the log folds into a
//     fresh snapshot
//   - TTL evict   spills a final snapshot and drops the in-memory session;
//     the files stay and the next request for the id rehydrates
//     it transparently
//   - shutdown    sessionStore.close spills every session in sorted-id
//     order (bounded per-session wait)
//   - delete      removes the files with the session
//   - boot        NewServer rehydrates every persisted session: snapshot
//     decoded, WAL replayed, torn tails truncated; sessions that
//     fail recovery are quarantined (renamed aside) and the
//     server keeps serving without them
//
// Protect runs are deliberately not logged: a selection is a pure function
// of the session state the snapshot+WAL already capture, so replay
// reproduces it bit-identically (the warm/cold engine contract), and the
// warm-start cache is persisted by the next snapshot (compaction, spill or
// shutdown) rather than per run.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/durable"
	"repro/internal/tpp"
)

// rehydrate loads every persisted session back into memory at boot.
// Sessions that fail recovery — corrupt snapshot, corrupt WAL, replay
// divergence — are quarantined and counted, never fatal: the server boots
// with what it can prove correct. Only an unreadable data dir is an error.
func (s *Server) rehydrate(ctx context.Context) error {
	ids, err := s.store.IDs()
	if err != nil {
		return fmt.Errorf("scanning -data-dir: %w", err)
	}
	for _, id := range ids {
		rec, _ := s.loadSession(ctx, id) // failures are quarantined and counted by loadSession
		if rec == nil {
			continue
		}
		// Measure before publish (the record is not yet reachable, so no
		// slot is needed), account after — boot rehydration fills the
		// budget back up and may itself trigger spills if the state on
		// disk outgrew -mem-budget since the last run.
		bytes := sessionFootprint(rec)
		s.sessions.publish(rec)
		s.accountSession(rec, bytes)
	}
	return nil
}

// getSession is the durability-aware replacement for sessionStore.acquire:
// on a miss with a store configured, it checks the disk for a spilled
// session and rehydrates it before answering. The same (nil, nil) = 404
// contract as acquire. loadMu serialises concurrent misses for the same id
// so a session is only ever rehydrated once.
func (s *Server) getSession(ctx context.Context, id string) (*sessionRecord, error) {
	rec, err := s.sessions.acquire(ctx, id)
	if rec != nil || err != nil || s.store == nil {
		return rec, err
	}
	s.loadMu.Lock()
	rec, err = s.sessions.acquire(ctx, id)
	if rec != nil || err != nil {
		s.loadMu.Unlock()
		return rec, err
	}
	rec, lerr := s.loadSession(ctx, id)
	if rec != nil {
		// Footprint is measured pre-publish (no slot needed yet) and
		// accounted after, like boot rehydration: a lazy load can push the
		// shard over budget and spill a colder session to make room.
		bytes := sessionFootprint(rec)
		s.sessions.publish(rec)
		s.accountSession(rec, bytes)
	}
	s.loadMu.Unlock()
	if lerr != nil || rec == nil {
		// Never persisted, or damaged (and now quarantined): either way the
		// id does not name a servable session.
		return nil, nil
	}
	return s.sessions.acquire(ctx, rec.id)
}

// loadSession recovers one session from disk. (nil, nil) means the id has
// no persisted bytes; an error means recovery or replay failed and the
// session's files were quarantined.
func (s *Server) loadSession(ctx context.Context, id string) (*sessionRecord, error) {
	if !s.store.Exists(id) {
		return nil, nil
	}
	snap, entries, h, err := s.store.Recover(id)
	if err != nil {
		s.quarantineSession(id, err)
		return nil, err
	}
	rec, err := s.rehydrateRecord(ctx, snap, entries, h)
	if err != nil {
		h.Close()
		s.quarantineSession(id, err)
		return nil, err
	}
	s.metrics.sessionsRehydrated.Inc()
	return rec, nil
}

// rehydrateRecord turns a recovered snapshot + WAL tail into a live
// session record: restore the Protector (which rebuilds and cross-checks
// the motif index), replay the logged deltas through the same Apply path
// the live handlers used, and fold each entry's labels into the label
// table exactly as the delta handler did.
func (s *Server) rehydrateRecord(ctx context.Context, snap *durable.SessionSnapshot, entries []durable.Entry, h *durable.Session) (*sessionRecord, error) {
	session, err := tpp.Restore(snap.State)
	if err != nil {
		return nil, err
	}
	lab := labelingFrom(snap.Labels, snap.State.Graph.NumNodes())
	for _, ent := range entries {
		if len(ent.Labels) != ent.Delta.AddNodes {
			return nil, fmt.Errorf("%w: entry seq %d carries %d labels for %d added nodes",
				durable.ErrCorruptWAL, ent.Seq, len(ent.Labels), ent.Delta.AddNodes)
		}
		rep, err := session.Apply(ctx, ent.Delta)
		if err != nil {
			return nil, fmt.Errorf("replaying WAL entry seq %d: %w", ent.Seq, err)
		}
		applyDeltaLabels(lab, ent.Labels, rep)
	}
	return &sessionRecord{
		id:            snap.ID,
		slot:          make(chan struct{}, 1),
		session:       session,
		lab:           lab,
		labBytes:      nameBytes(lab.ToName),
		pattern:       snap.State.Pattern.String(),
		defaultBudget: snap.DefaultBudget,
		created:       snap.Created,
		lastUsed:      time.Now(),
		runs:          snap.Runs,
		// Every committed delta appended exactly one frame, so the handle's
		// sequence number is the session's lifetime delta count.
		deltas:  int64(h.Seq()),
		durable: h,
		// Seed the stat watermarks with the restored counters, or the next
		// recordSessionStats would fold the session's whole pre-restart
		// history into the aggregate metrics a second time.
		statWarm:      int64(session.WarmRuns()),
		statCold:      int64(session.ColdRuns()),
		statFallbacks: int64(session.WarmFallbacks()),
	}, nil
}

// persistNewSession writes a fresh session's initial snapshot and empty
// WAL, returning the append handle. Called from the create handler before
// the record is published.
func (s *Server) persistNewSession(ctx context.Context, rec *sessionRecord) (*durable.Session, error) {
	snap, err := s.sessionSnapshot(ctx, rec, 0)
	if err != nil {
		return nil, err
	}
	return s.store.Create(snap)
}

// sessionSnapshot assembles the durable snapshot of a session: the
// Protector's persistent state wrapped with the serving metadata (labels,
// created time, run count) the record owns. The caller holds the record
// slot, which is exactly the borrow window tpp.Snapshot requires.
func (s *Server) sessionSnapshot(ctx context.Context, rec *sessionRecord, seq uint64) (*durable.SessionSnapshot, error) {
	state, err := rec.session.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return &durable.SessionSnapshot{
		ID:            rec.id,
		Seq:           seq,
		Created:       rec.created,
		Runs:          rec.runs,
		DefaultBudget: rec.defaultBudget,
		Labels:        rec.lab.ToName,
		State:         state,
	}, nil
}

// compactSession folds the session's WAL into a fresh snapshot. Called
// from the delta handler once the log crosses the compaction threshold.
func (s *Server) compactSession(ctx context.Context, rec *sessionRecord) error {
	snap, err := s.sessionSnapshot(ctx, rec, rec.durable.Seq())
	if err != nil {
		return err
	}
	return rec.durable.Compact(snap)
}

// spillSession writes a session's final snapshot and closes its WAL handle
// — the files stay behind for rehydration. Called (with the record slot
// held) by TTL eviction and shutdown; a failed spill loses only the state
// since the last snapshot+WAL write, exactly like a crash at that point.
func (s *Server) spillSession(rec *sessionRecord) {
	if rec.durable == nil {
		return
	}
	snap, err := s.sessionSnapshot(context.Background(), rec, rec.durable.Seq())
	if err == nil {
		err = rec.durable.Snapshot(snap)
	}
	if err != nil {
		s.logger.Error("tppd: spilling session snapshot", "session", rec.id, "error", err)
	}
	if err := rec.durable.Close(); err != nil {
		s.logger.Error("tppd: closing session WAL", "session", rec.id, "error", err)
	}
	rec.durable = nil
}

// quarantineSession renames a damaged session's files aside and logs why.
func (s *Server) quarantineSession(id string, cause error) {
	s.logger.Error("tppd: quarantining session", "session", id, "error", cause)
	if err := s.store.Quarantine(id); err != nil {
		s.logger.Error("tppd: quarantine failed", "session", id, "error", err)
	}
}

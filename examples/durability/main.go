// Durability: survive a crash with nothing to re-upload.
//
// A long-lived protection session accumulates state that exists nowhere
// else — the mutated graph, the evolved target list, and the warm-start
// selection that makes steady-state re-protection fast. This example walks
// the crash-recovery cycle at the library level (internal/durable, the
// layer behind tppd's -data-dir): snapshot a live session, append each
// applied delta to a CRC-framed write-ahead log with fsync-before-ack,
// then simulate a power cut — the in-memory session is abandoned and the
// log's final record is torn mid-frame, exactly the shape a mid-append
// crash leaves behind. Recovery truncates the torn tail, replays the
// intact records onto the decoded snapshot, and re-protects: the recovered
// selection is bit-identical to a session that never crashed, because
// selection is a pure function of snapshot + WAL state. A final compaction
// folds the log back into a fresh snapshot.
//
// Run with: go run ./examples/durability
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datasets"
	"repro/internal/durable"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/motif"
	"repro/internal/tpp"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "tpp-durability-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A collaboration network with 64 sensitive links, protected once.
	ds := datasets.DBLPSim(1500, 11)
	rng := rand.New(rand.NewSource(11))
	targets := datasets.SampleTargets(ds.Graph, 64, rng)
	session, err := tpp.New(ds.Graph, targets,
		tpp.WithPattern(motif.Triangle), tpp.WithBudget(24))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := session.Run(ctx); err != nil {
		log.Fatal(err)
	}

	// Persist it: the snapshot captures graph, targets, options and the
	// warm-start selection; the motif index is rebuilt on load and checked
	// against recorded invariants instead of being serialized.
	store, err := durable.Open(dir, durable.Options{SyncWrites: true})
	if err != nil {
		log.Fatal(err)
	}
	st, err := session.Snapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	handle, err := store.Create(&durable.SessionSnapshot{
		ID: "s1", Created: time.Now(), Runs: 1, State: st,
	})
	if err != nil {
		log.Fatal(err)
	}
	snapInfo, _ := os.Stat(filepath.Join(dir, "s1.snap"))
	fmt.Printf("persisted: %d nodes, %d edges, %d targets → %d-byte snapshot\n",
		st.Graph.NumNodes(), st.Graph.NumEdges()+len(st.Targets), len(st.Targets), snapInfo.Size())

	// The network evolves. Every applied delta is logged and fsynced before
	// the caller would be acked — the WAL is the commit point.
	churn := gen.NewMutationChurn(ds.Graph, targets, gen.DefaultChurnRates(), rng)
	var applied []dynamic.Delta
	for i := 0; i < 6; i++ {
		d := dynamic.Delta(churn.Next(8))
		if _, err := session.Apply(ctx, d); err != nil {
			log.Fatal(err)
		}
		if err := handle.AppendDelta(d, nil); err != nil {
			log.Fatal(err)
		}
		applied = append(applied, d)
	}
	want, err := session.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied and logged %d deltas; live session selects %d protectors\n",
		len(applied), len(want.Protectors))

	// CRASH. The process dies mid-append: the in-memory session is gone and
	// the last WAL record is half-written. Simulate the torn write by
	// chopping bytes off the log's tail.
	walPath := filepath.Join(dir, "s1.wal")
	wi, _ := os.Stat(walPath)
	if err := os.Truncate(walPath, wi.Size()-7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- crash: session memory lost, WAL torn mid-frame (%d → %d bytes) --\n\n",
		wi.Size(), wi.Size()-7)
	_ = handle.Close()

	// Recovery: decode + CRC-verify the snapshot, truncate the torn tail,
	// replay the intact records. The torn record was never acked — losing
	// it is the contract, not a bug.
	store2, err := durable.Open(dir, durable.Options{SyncWrites: true})
	if err != nil {
		log.Fatal(err)
	}
	snap, tail, handle2, err := store2.Recover("s1")
	if err != nil {
		log.Fatal(err)
	}
	restored, err := tpp.Restore(snap.State)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range tail {
		if _, err := restored.Apply(ctx, e.Delta); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("recovered: snapshot at seq %d + %d intact WAL records (torn 6th truncated)\n",
		snap.Seq, len(tail))

	// The recovered session must agree with a crash-free control fed the
	// same surviving prefix — protector for protector.
	control, err := tpp.New(ds.Graph.Clone(), append([]graph.Edge(nil), targets...),
		tpp.WithPattern(motif.Triangle), tpp.WithBudget(24))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := control.Run(ctx); err != nil {
		log.Fatal(err)
	}
	for _, d := range applied[:len(tail)] {
		if _, err := control.Apply(ctx, d); err != nil {
			log.Fatal(err)
		}
	}
	got, err := restored.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := control.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if len(got.Protectors) != len(ctl.Protectors) {
		log.Fatalf("parity broken: %d vs %d protectors", len(got.Protectors), len(ctl.Protectors))
	}
	for i := range got.Protectors {
		if got.Protectors[i] != ctl.Protectors[i] {
			log.Fatalf("parity broken at protector %d: %v vs %v",
				i, got.Protectors[i], ctl.Protectors[i])
		}
	}
	fmt.Printf("parity: recovered selection == crash-free control (%d protectors, warm start: %v)\n",
		len(got.Protectors), got.WarmStart)

	// Compaction folds the replayed log into a fresh snapshot (write temp,
	// fsync, rename, truncate WAL) so the next boot replays nothing.
	st2, err := restored.Snapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := handle2.Compact(&durable.SessionSnapshot{
		ID: "s1", Seq: handle2.Seq(), Created: snap.Created, Runs: snap.Runs + 1, State: st2,
	}); err != nil {
		log.Fatal(err)
	}
	si, _ := os.Stat(filepath.Join(dir, "s1.snap"))
	wi2, _ := os.Stat(walPath)
	fmt.Printf("compacted: snapshot now at seq %d (%d bytes), WAL reset to %d bytes\n",
		handle2.Seq(), si.Size(), wi2.Size())
	handle2.Close()
}

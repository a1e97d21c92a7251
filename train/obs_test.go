package train_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/lineage"
	"repro/train"
)

// TestWithObserverStreamsTraining drives a short Fit with a bus attached and
// checks the facade's side of the contract: the engine's events reach an
// aggregator, the drain summary matches the Report, and the Trainer stamps a
// KindEpoch event per epoch.
func TestWithObserverStreamsTraining(t *testing.T) {
	trainSet, testSet, build := blobTask()
	bus := obs.NewBus()
	defer bus.Close()
	agg := obs.NewAggregator(bus)
	defer agg.Close()

	tr := train.New(build, train.WithEngine("lockstep"), train.WithSeed(5), train.WithObserver(bus))
	defer tr.Close()
	rep, err := tr.Fit(context.Background(), trainSet, testSet, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Emit delivers on the emitting goroutine, so Fit's events are folded
	// by the time it returns.
	snap := agg.Snapshot()
	if !snap.HasEngineStats {
		t.Fatal("no drain summary reached the aggregator")
	}
	if snap.Epoch != 2 {
		t.Fatalf("aggregator epoch = %d, want 2", snap.Epoch)
	}
	if snap.Completed != int64(rep.Samples) {
		t.Fatalf("aggregator completed = %d, Report.Samples = %d", snap.Completed, rep.Samples)
	}
	if snap.EngineUtilization != rep.Utilization {
		t.Fatalf("aggregator utilization = %v, Report.Utilization = %v", snap.EngineUtilization, rep.Utilization)
	}
	if len(snap.StalenessHist) == 0 {
		t.Fatal("no staleness events reached the aggregator")
	}
}

// TestWithObserverBitIdentical: attaching a bus through the facade must not
// change the trained weights (the facade-level restatement of
// core.TestObsDoesNotPerturbTraining).
func TestWithObserverBitIdentical(t *testing.T) {
	trainSet, testSet, build := blobTask()
	run := func(opts ...train.Option) [][]float64 {
		opts = append([]train.Option{train.WithEngine("lockstep"), train.WithSeed(9)}, opts...)
		tr := train.New(build, opts...)
		defer tr.Close()
		if _, err := tr.Fit(context.Background(), trainSet, testSet, 2); err != nil {
			t.Fatal(err)
		}
		return tr.Network().SnapshotWeights()
	}
	plain := run()
	bus := obs.NewBus()
	defer bus.Close()
	sub := bus.Subscribe(16) // shallow on purpose: drops must not matter
	defer sub.Close()
	observed := run(train.WithObserver(bus))
	if !sameWeights(plain, observed) {
		t.Fatal("weights differ with a bus attached through the facade")
	}
}

// TestWithLineageRecordsRun checks the lineage file a Fit leaves behind:
// config → checkpoint → run with content-addressed IDs, verifiable, and
// joinable by a second process hashing the same checkpoint file.
func TestWithLineageRecordsRun(t *testing.T) {
	trainSet, testSet, build := blobTask()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	lin := filepath.Join(dir, "LINEAGE_run.json")

	tr := train.New(build,
		train.WithEngine("seq"), train.WithSeed(3),
		train.WithCheckpointEvery(1, ckpt), train.WithLineage(lin))
	defer tr.Close()
	if _, err := tr.Fit(context.Background(), trainSet, testSet, 2); err != nil {
		t.Fatal(err)
	}

	g, err := lineage.Load(lin)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	var cfgID, runID string
	ckpts := 0
	for _, n := range g.Nodes {
		switch n.Kind {
		case lineage.KindConfig:
			cfgID = n.ID
			if n.Attrs["engine"] != "seq" || n.Attrs["seed"] != "3" {
				t.Fatalf("config node attrs %v", n.Attrs)
			}
		case lineage.KindCheckpoint:
			ckpts++
		case lineage.KindRun:
			runID = n.ID
		}
	}
	if cfgID == "" || runID == "" {
		t.Fatalf("graph missing config (%q) or run (%q) node", cfgID, runID)
	}
	// WithCheckpointEvery(1, path) saved after each of 2 epochs into the same
	// file; the epoch-1 and epoch-2 snapshots have different weights, so two
	// distinct checkpoint nodes exist.
	if ckpts != 2 {
		t.Fatalf("graph has %d checkpoint nodes, want 2", ckpts)
	}
	run, _ := g.Lookup(runID)
	if len(run.Parents) != 3 { // config + both checkpoints
		t.Fatalf("run node has %d parents, want 3: %v", len(run.Parents), run.Parents)
	}

	// The final checkpoint node's hash is the file's current content, and a
	// separate run hashing the same file mints the same node ID.
	h, err := lineage.FileHash(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, n := range g.Nodes {
		if n.Kind == lineage.KindCheckpoint && n.Attrs["sha256"] == h {
			other := lineage.New()
			id := other.Add(lineage.KindCheckpoint, filepath.Base(ckpt),
				map[string]string{"sha256": h}, n.Parents...)
			if id != n.ID {
				t.Fatalf("re-derived checkpoint node ID %s != recorded %s", id, n.ID)
			}
			matched = true
		}
	}
	if !matched {
		t.Fatal("no checkpoint node matches the file's current hash")
	}
}

// TestWithLineageMergesAcrossFits: a second Fit on a new Trainer with the
// same lineage path extends the existing graph instead of clobbering it.
func TestWithLineageMergesAcrossFits(t *testing.T) {
	trainSet, testSet, build := blobTask()
	dir := t.TempDir()
	lin := filepath.Join(dir, "LINEAGE_shared.json")

	for i, seed := range []int64{1, 2} {
		tr := train.New(build, train.WithEngine("seq"), train.WithSeed(seed), train.WithLineage(lin))
		if _, err := tr.Fit(context.Background(), trainSet, testSet, 1); err != nil {
			t.Fatal(err)
		}
		tr.Close()
		g, err := lineage.Load(lin)
		if err != nil {
			t.Fatal(err)
		}
		configs := 0
		for _, n := range g.Nodes {
			if n.Kind == lineage.KindConfig {
				configs++
			}
		}
		if configs != i+1 {
			t.Fatalf("after run %d: %d config nodes, want %d", i+1, configs, i+1)
		}
	}
	// The file is deterministic JSON: loading and rewriting is byte-stable.
	before, err := os.ReadFile(lin)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lineage.Load(lin)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(lin); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(lin)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("lineage file not byte-stable across load/rewrite")
	}
}

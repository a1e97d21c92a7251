package lineage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestContentAddressedIDs(t *testing.T) {
	g1 := New()
	cfg1 := g1.Add(KindConfig, "train", map[string]string{"lr": "0.01", "stages": "4"})
	g2 := New()
	cfg2 := g2.Add(KindConfig, "train", map[string]string{"stages": "4", "lr": "0.01"})
	if cfg1 != cfg2 {
		t.Fatalf("attr order changed ID: %s vs %s", cfg1, cfg2)
	}
	other := g1.Add(KindConfig, "train", map[string]string{"lr": "0.02", "stages": "4"})
	if other == cfg1 {
		t.Fatal("different content produced the same ID")
	}
	// Re-adding identical content is a no-op.
	g1.Add(KindConfig, "train", map[string]string{"lr": "0.01", "stages": "4"})
	if len(g1.Nodes) != 2 {
		t.Fatalf("graph has %d nodes, want 2", len(g1.Nodes))
	}
}

func TestParentOrderInsensitive(t *testing.T) {
	g := New()
	a := g.Add(KindConfig, "a", nil)
	b := g.Add(KindConfig, "b", nil)
	r1 := (&Node{Kind: KindRun, Name: "r", Parents: []string{a, b}}).computeID()
	n2 := Node{Kind: KindRun, Name: "r", Parents: []string{b, a}}
	// Add sorts parents before hashing; computeID on pre-sorted must match.
	id := g.Add(KindRun, "r", nil, b, a)
	if id != r1 {
		_ = n2
		t.Fatalf("parent order changed ID: %s vs %s", id, r1)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "weights.ckpt")
	if err := os.WriteFile(ckpt, []byte("weights-v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := FileHash(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	g := New()
	cfg := g.Add(KindConfig, "train", map[string]string{"lr": "0.01"})
	ck := g.Add(KindCheckpoint, "weights.ckpt", map[string]string{"sha256": h, "epoch": "1"}, cfg)
	g.Add(KindArtifact, "run1.json", map[string]string{"schema": "repro/benchmark/v1"}, ck)

	path := filepath.Join(dir, "LINEAGE_run.json")
	if err := g.Write(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(loaded.Nodes) != 3 {
		t.Fatalf("loaded %d nodes, want 3", len(loaded.Nodes))
	}
	if _, ok := loaded.Lookup(ck); !ok {
		t.Fatalf("checkpoint node %s missing after round trip", ck)
	}
	// Re-writing the loaded graph is byte-identical: deterministic encoding.
	if err := loaded.Write(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("round-tripped lineage file is not byte-identical")
	}
}

// TestCrossGraphCheckpointJoin is the design property the package exists
// for: a training run and a serving run that touch the same checkpoint file
// mint the same checkpoint node ID, so their graphs join when merged.
func TestCrossGraphCheckpointJoin(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "weights.ckpt")
	if err := os.WriteFile(ckpt, []byte("identical-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := FileHash(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{"sha256": h}

	trainRun := New()
	cfg := trainRun.Add(KindConfig, "train", map[string]string{"lr": "0.01"})
	ckTrain := trainRun.Add(KindCheckpoint, "weights.ckpt", attrs, cfg)

	serveRun := New()
	ckServe := serveRun.Add(KindCheckpoint, "weights.ckpt", map[string]string{"sha256": h}, cfg)
	serveRun.Add(KindRun, "serve", map[string]string{"addr": ":8080"}, ckServe)

	if ckTrain != ckServe {
		t.Fatalf("same checkpoint content minted distinct IDs: %s vs %s", ckTrain, ckServe)
	}
	// Merging joins on the shared node instead of duplicating it.
	merged := New()
	merged.Merge(trainRun)
	merged.Merge(serveRun)
	count := 0
	for _, n := range merged.Nodes {
		if n.Kind == KindCheckpoint {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("merged graph has %d checkpoint nodes, want 1", count)
	}
	// serveRun referenced cfg without holding its node: Verify must reject
	// the dangling parent until the graphs merge.
	if err := serveRun.Verify(); err == nil {
		t.Fatal("Verify accepted a dangling parent reference")
	}
	if err := merged.Verify(); err != nil {
		t.Fatalf("merged graph fails Verify: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	g, err := Load(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 0 {
		t.Fatal("missing file did not load as empty graph")
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	g := New()
	g.Add(KindConfig, "train", map[string]string{"lr": "0.01"})
	g.Nodes[0].Attrs["lr"] = "0.02"
	if err := g.Verify(); err == nil {
		t.Fatal("Verify accepted a tampered node")
	}
}

func TestSidecar(t *testing.T) {
	if got := Sidecar("/tmp/out/weights.ckpt"); got != "/tmp/out/LINEAGE_weights.json" {
		t.Fatalf("Sidecar = %q", got)
	}
}

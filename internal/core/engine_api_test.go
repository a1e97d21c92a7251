package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

// TestEngineNamesListsBuiltins pins the closed engine set: EngineNames is
// exactly the three built-in names, each builds through NewEngine, "" is the
// seq reference, and an unknown name's error lists every valid one.
func TestEngineNamesListsBuiltins(t *testing.T) {
	want := []string{"async", "lockstep", "seq"}
	if got := EngineNames(); !slices.Equal(got, want) {
		t.Fatalf("EngineNames() = %v, want %v", got, want)
	}
	EngineNames()[0] = "mutated"
	if got := EngineNames(); !slices.Equal(got, want) {
		t.Fatalf("EngineNames() aliases its backing list: %v", got)
	}
	net := func() *nn.Network { return models.DeepMLP(4, 4, 2, 2, 1) }
	for _, name := range want {
		e, err := NewEngine(name, net(), Config{LR: 0.01})
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		e.Close()
	}
	e, err := NewEngine("", net(), Config{LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if pb, ok := e.(*PBTrainer); !ok || pb.lanes != nil {
		t.Fatalf(`NewEngine("") = %T, want a seq *PBTrainer`, e)
	}
	_, err = NewEngine("nope", net(), Config{LR: 0.01})
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-engine error %q does not list %q", err, name)
		}
	}
}

// TestRunEpochAugmenterNilRNG is the regression test for the nil-RNG
// augmentation path: RunEpoch with a real (randomized) augmenter and no RNG
// used to crash with a bare nil dereference inside Augmenter.Apply; it now
// derives a deterministic seeded RNG, so the run completes and is
// bit-reproducible.
func TestRunEpochAugmenterNilRNG(t *testing.T) {
	imgs := data.CIFAR10Like(8, 16, 0, 3)
	train, _ := data.GenerateImages(imgs)
	aug := data.PadCropFlip{Channels: 3, Size: 8, Pad: 1}
	run := func(useAug bool) (float64, [][]float64) {
		net := models.ResNet(models.MiniResNet(8, 4, 8, 10, 5))
		e := NewPBTrainer(net, ScaledConfig(0.05, 0.9, 32, 1))
		var a data.Augmenter
		if useAug {
			a = aug
		}
		loss, _, err := RunEpoch(context.Background(), e, train, nil, a, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return loss, net.SnapshotWeights()
	}
	loss1, w1 := run(true)
	loss2, w2 := run(true)
	if loss1 != loss2 {
		t.Fatalf("nil-RNG augmented runs diverge: loss %v vs %v", loss1, loss2)
	}
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != w2[i][j] {
				t.Fatalf("nil-RNG augmented runs diverge at weight [%d][%d]", i, j)
			}
		}
	}
	// The fallback RNG must actually drive the augmenter: an augmented run
	// cannot coincide with the untouched-sample run.
	_, wPlain := run(false)
	same := true
	for i := range w1 {
		for j := range w1[i] {
			if w1[i][j] != wPlain[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("augmenter with derived RNG left the trajectory identical to the unaugmented run")
	}
}

// TestEngineSubmitCancelled checks every engine's Submit/Drain honor an
// already-cancelled context without admitting work or blocking.
func TestEngineSubmitCancelled(t *testing.T) {
	train, _ := data.GaussianBlobs(6, 3, 4, 0, 1, 0.5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []string{"seq", "lockstep", "async"} {
		e, err := NewEngine(kind, models.DeepMLP(6, 8, 3, 3, 1), Config{LR: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		x, y := train.Sample(0)
		if _, err := e.Submit(ctx, x, y); err == nil {
			t.Fatalf("%s: Submit with cancelled ctx succeeded", kind)
		}
		if _, err := e.Drain(ctx); err == nil {
			t.Fatalf("%s: Drain with cancelled ctx succeeded", kind)
		}
		if st := e.Stats(); st.Submitted != 0 {
			t.Fatalf("%s: cancelled Submit still admitted %d samples", kind, st.Submitted)
		}
		// The rejected engine must still drain cleanly and close leak-free.
		if rs := drain(e); len(rs) != 0 {
			t.Fatalf("%s: empty engine drained %d results", kind, len(rs))
		}
		e.Close()
	}
}

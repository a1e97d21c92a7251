package core

import (
	"context"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

// TestAsyncDrainedMatchesSequential pins the free-running engine's stage
// code (runForward, lossBackward, runBackward, retireInput, complete) to the
// sequential reference. Fed one sample and drained before the next, the
// free engine has exactly one admissible schedule, so at a constant LR its
// weights, optimizer state and per-sample losses must equal seq fed the same
// way, bit for bit, under every mitigation of the golden matrix.
func TestAsyncDrainedMatchesSequential(t *testing.T) {
	blobs, _ := data.GaussianBlobs(6, 3, 24, 0, 1, 0.5, 120)
	imgs, _ := data.GenerateImages(data.CIFAR10Like(8, 12, 0, 7))
	for _, m := range []struct {
		name  string
		ds    *data.Dataset
		build func() *nn.Network
	}{
		{"mlp", blobs, func() *nn.Network { return models.DeepMLP(6, 8, 3, 3, 120) }},
		{"resnet", imgs, func() *nn.Network { return models.ResNet(models.MiniResNet(8, 4, 8, 10, 3)) }},
	} {
		perm := rand.New(rand.NewSource(5)).Perm(m.ds.Len())
		for _, mt := range trajMitigations {
			label := m.name + "/" + mt.name
			cfg := ScaledConfig(0.05, 0.9, 32, 1)
			cfg.WeightDecay = 5e-4
			cfg.Mitigation = mt.mit
			netSeq, netAsy := m.build(), m.build()
			seq := NewPBTrainer(netSeq, cfg)
			asy := NewAsyncPBTrainer(netAsy, cfg)
			rsSeq := feedEpoch(seq, m.ds, perm, true)
			rsAsy := feedEpoch(asy, m.ds, perm, true)
			asy.Close()
			resultsEqual(t, label, rsSeq, rsAsy)
			weightsEqual(t, label, netSeq, netAsy)
			hs, ha := fnv.New64a(), fnv.New64a()
			hashReplica(hs, seq)
			hashReplica(ha, asy)
			if hs.Sum64() != ha.Sum64() {
				t.Fatalf("%s: optimizer state deviates from seq", label)
			}
		}
	}
}

// TestAsyncFreeStalenessBounded is the free-running engine's core safety
// property: with stages racing freely over bounded queues, the observed
// forward→backward update gap must still respect the analytic bound
// D_s = 2(S−1−s) at every stage (Eq. 5), enforced purely by the per-stage
// context-FIFO cap.
func TestAsyncFreeStalenessBounded(t *testing.T) {
	for _, mit := range []Mitigation{None, LWPvDSCD, WeightStash} {
		seed := int64(92)
		train, _ := data.GaussianBlobs(6, 3, 200, 0, 1, 0.5, seed)
		net := models.DeepMLP(6, 8, 5, 3, seed)
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = mit
		asy := NewAsyncPBTrainer(net, cfg)

		completed := 0
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			completed += len(submit(asy, x, y))
		}
		completed += len(drain(asy))
		if completed != train.Len() {
			t.Fatalf("%s: completed %d of %d samples", mit.Name(), completed, train.Len())
		}
		bound, got := asy.Delays(), asy.ObservedDelays()
		for i := range bound {
			if got[i] > bound[i] {
				t.Fatalf("%s: stage %d observed staleness %d exceeds D_s=%d",
					mit.Name(), i, got[i], bound[i])
			}
		}
		if asy.Outstanding() != 0 {
			t.Fatalf("%s: outstanding %d after drain", mit.Name(), asy.Outstanding())
		}
		asy.Close()
	}
}

// TestAsyncFreeTrains checks the free-running engine actually learns: mean
// loss over the last quarter of an epoch stream must drop well below the
// first quarter's.
func TestAsyncFreeTrains(t *testing.T) {
	seed := int64(93)
	train, _ := data.GaussianBlobs(8, 4, 400, 0, 2.2, 1.0, seed)
	net := models.DeepMLP(8, 16, 4, 4, seed)
	asy := NewAsyncPBTrainer(net, ScaledConfig(0.1, 0.9, 16, 1))
	defer asy.Close()

	var rs []*Result
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		rs = append(rs, submit(asy, x, y)...)
	}
	rs = append(rs, drain(asy)...)
	q := len(rs) / 4
	early, late := 0.0, 0.0
	for _, r := range rs[:q] {
		early += r.Loss
	}
	for _, r := range rs[len(rs)-q:] {
		late += r.Loss
	}
	early /= float64(q)
	late /= float64(q)
	if late > 0.7*early {
		t.Fatalf("free-running engine not training: early mean loss %.4f, late %.4f", early, late)
	}
}

// TestAsyncRunEpochAgreesWithSequential runs the engine-agnostic RunEpoch
// through the factory's deterministic engines and expects identical
// epoch-level metrics and weights.
func TestAsyncRunEpochAgreesWithSequential(t *testing.T) {
	seed := int64(94)
	train, _ := data.GaussianBlobs(6, 3, 80, 0, 1, 0.5, seed)
	cfg := ScaledConfig(0.1, 0.9, 16, 1)

	type run struct {
		loss, acc float64
		weights   [][]float64
	}
	runs := map[string]run{}
	for _, kind := range []string{"seq", "lockstep"} {
		net := models.DeepMLP(6, 8, 3, 3, seed)
		e, err := NewEngine(kind, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		loss, acc, err := RunEpoch(context.Background(), e, train, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		runs[kind] = run{loss: loss, acc: acc, weights: net.SnapshotWeights()}
	}
	ref := runs["seq"]
	for kind, r := range runs {
		if r.loss != ref.loss || r.acc != ref.acc {
			t.Fatalf("%s: epoch metrics (%.6f, %.4f) differ from seq (%.6f, %.4f)",
				kind, r.loss, r.acc, ref.loss, ref.acc)
		}
		for i := range r.weights {
			for j := range r.weights[i] {
				if r.weights[i][j] != ref.weights[i][j] {
					t.Fatalf("%s: weight[%d][%d] deviates from seq", kind, i, j)
				}
			}
		}
	}
}

// TestNewEngineUnknown checks the factory rejects bad selectors.
func TestNewEngineUnknown(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	if _, err := NewEngine("warp", net, Config{LR: 0.01}); err == nil {
		t.Fatal("expected error for unknown engine kind")
	}
}

// --- lifecycle: the concurrent-engine suite applied to the async engine ---

func TestAsyncCloseIdempotent(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0})
	asy.Close()
	asy.Close() // second close must be a no-op
}

func TestAsyncSubmitAfterClosePanics(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0})
	asy.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Submit after Close")
		}
	}()
	train, _ := data.GaussianBlobs(4, 2, 1, 0, 1, 0.5, 1)
	x, y := train.Sample(0)
	submit(asy, x, y)
}

// TestAsyncNoGoroutineLeak closes engines (both idle and mid-flight) and
// checks the goroutine count returns to its baseline.
func TestAsyncNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	idle := NewAsyncPBTrainer(models.DeepMLP(6, 8, 4, 3, 1), Config{LR: 0.01, Momentum: 0.5})
	idle.Close()
	net := models.DeepMLP(6, 8, 4, 3, 1)
	asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0.5})
	train, _ := data.GaussianBlobs(6, 3, 4, 0, 1, 0.5, 1)
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		submit(asy, x, y) // leave the pipeline partially filled
	}
	asy.Close()
	if !settlesTo(baseline) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// settlesTo waits briefly for the scheduler to retire exiting goroutines.
func settlesTo(baseline int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// TestAsyncDrainPartial drains a pipeline holding fewer samples than its
// depth — the fill phase — and expects every one back.
func TestAsyncDrainPartial(t *testing.T) {
	net := models.DeepMLP(6, 8, 6, 3, 1) // deeper than the 3 samples fed
	asy := NewAsyncPBTrainer(net, Config{LR: 0.01, Momentum: 0.5})
	defer asy.Close()
	train, _ := data.GaussianBlobs(6, 3, 3, 0, 1, 0.5, 1)
	got := 0
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		got += len(submit(asy, x, y))
	}
	got += len(drain(asy))
	if got != train.Len() {
		t.Fatalf("partial drain returned %d of %d results", got, train.Len())
	}
	if asy.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", asy.Outstanding())
	}
	// A second drain on the now-empty pipeline must be a cheap no-op.
	if rs := drain(asy); len(rs) != 0 {
		t.Fatalf("drain of empty pipeline returned %d results", len(rs))
	}
}

// TestAsyncDrainAfterClose pins the Drain-after-Close contract: a no-op on
// an empty pipeline, a panic (not a hang) with samples in flight. The
// in-flight sample is parked in stage 0's forward by the StageDelay hook and
// released only once every other stage loop has exited on Close, so it can
// never complete.
func TestAsyncDrainAfterClose(t *testing.T) {
	asy := NewAsyncPBTrainer(models.DeepMLP(4, 4, 2, 2, 1), Config{LR: 0.01})
	asy.Close()
	if rs := drain(asy); rs != nil {
		t.Fatalf("drain of closed empty engine returned %v", rs)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	cfg := Config{LR: 0.01, StageDelay: func(p ChaosPoint) time.Duration {
		if p.Stage == 0 && !p.Backward {
			close(parked)
			<-release
		}
		return 0
	}}
	// Stage loops of engines closed earlier may still be unwinding, so the
	// wait below counts only goroutines this engine started.
	before := asyncWorkers()
	asy = NewAsyncPBTrainer(models.DeepMLP(6, 8, 6, 3, 1), cfg)
	train, _ := data.GaussianBlobs(6, 3, 2, 0, 1, 0.5, 1)
	x, y := train.Sample(0)
	submit(asy, x, y)
	<-parked
	closed := make(chan struct{})
	go func() { asy.Close(); close(closed) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for id := range asyncWorkers() {
			if !before[id] {
				alive++
			}
		}
		if alive == 1 { // the parked stage 0
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stage loops did not exit on Close")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closed
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Drain after Close with in-flight samples")
		}
	}()
	drain(asy)
}

// asyncWorkers returns the IDs of the goroutines NewAsyncPBTrainer started
// (its stage loops) that have not exited. It matches the creation site, not
// the worker frame, so a loop not yet scheduled counts too.
func asyncWorkers() map[string]bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "created by repro/internal/core.NewAsyncPBTrainer ") {
			ids[strings.Fields(g)[1]] = true // "goroutine <id> [<state>]:"
		}
	}
	return ids
}

// TestAsyncSingleStage covers the S=1 degenerate pipeline, where the only
// stage is both first and last (zero delay, loss-backed immediately).
func TestAsyncSingleStage(t *testing.T) {
	train, _ := data.GaussianBlobs(4, 2, 20, 0, 1, 0.5, 7)
	netSeq := models.MLP(models.MLPConfig{In: 4, Hidden: []int{}, Classes: 2, Seed: 7})
	netAsy := models.MLP(models.MLPConfig{In: 4, Hidden: []int{}, Classes: 2, Seed: 7})
	if netSeq.NumStages() != 1 {
		t.Skipf("expected single-stage MLP, got %d stages", netSeq.NumStages())
	}
	cfg := Config{LR: 0.05, Momentum: 0.9}
	seq := NewPBTrainer(netSeq, cfg)
	asy := NewAsyncPBTrainer(netAsy, cfg)
	defer asy.Close()
	got := 0
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		x2 := x.Clone()
		submit(seq, x, y)
		got += len(submit(asy, x2, y))
	}
	drain(seq)
	got += len(drain(asy))
	if got != train.Len() {
		t.Fatalf("single-stage pipeline completed %d of %d", got, train.Len())
	}
	weightsEqual(t, "single stage", netSeq, netAsy)
}

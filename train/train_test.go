package train_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sched"
	syncpol "repro/internal/sync"
	"repro/train"
)

// blobTask is the shared tiny workload: a separable 4-class blob problem
// and a 4-stage MLP pipeline.
func blobTask() (*data.Dataset, *data.Dataset, train.Builder) {
	trainSet, testSet := data.GaussianBlobs(8, 4, 64, 32, 3, 0.8, 11)
	build := func(seed int64) *nn.Network { return models.DeepMLP(8, 12, 3, 4, seed) }
	return trainSet, testSet, build
}

// directRun is the pre-redesign training path, hand-wired exactly as
// exp.RunMethod used to do it: core.NewEngine + core.RunEpoch per epoch
// with the seed*7919 RNG stream, Eq. 9 scaling and the He-style MultiStep
// schedule. The façade must reproduce it bit for bit.
func directRun(t *testing.T, build train.Builder, kind string, mit core.Mitigation,
	ref train.RefHyper, trainSet, testSet *data.Dataset, epochs int, seed int64) (curve []float64, weights [][]float64) {
	t.Helper()
	net := build(seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	cfg := core.ScaledConfig(ref.Eta, ref.Momentum, ref.RefBatch, 1)
	cfg.WeightDecay = ref.WeightDecay
	cfg.Mitigation = mit
	total := trainSet.Len() * epochs
	cfg.Schedule = sched.MultiStep{Base: cfg.LR, Milestones: []int{total / 2, total * 3 / 4}, Gamma: 0.1}
	eng, err := core.NewEngine(kind, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for e := 0; e < epochs; e++ {
		if _, _, err := core.RunEpoch(context.Background(), eng, trainSet, trainSet.Perm(rng), nil, rng, nil); err != nil {
			t.Fatal(err)
		}
		xs, ys := testSet.Batches(32)
		_, a := net.Evaluate(xs, ys)
		curve = append(curve, a)
	}
	return curve, net.SnapshotWeights()
}

func sameWeights(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestFacadeMatchesDirectEngine is the redesign's bit-identity proof (the
// TestPooledMatchesUnpooled* equivalent through the façade): for the
// deterministic engines and a spread of mitigations, Fit must reproduce the
// hand-wired pre-redesign loop exactly — pooled and unpooled.
func TestFacadeMatchesDirectEngine(t *testing.T) {
	trainSet, testSet, build := blobTask()
	ref := train.RefHyper{Eta: 0.1, Momentum: 0.9, WeightDecay: 1e-4, RefBatch: 16}
	const epochs, seed = 3, 7
	for _, kind := range []string{"seq", "lockstep"} {
		for _, mit := range []core.Mitigation{core.None, core.LWPvDSCD, core.WeightStash} {
			wantCurve, wantW := directRun(t, build, kind, mit, ref, trainSet, testSet, epochs, seed)

			run := func(extra ...train.Option) ([]float64, [][]float64) {
				opts := append([]train.Option{
					train.WithEngine(kind),
					train.WithMitigations(mit),
					train.WithRefHyper(ref),
					train.WithSeed(seed),
				}, extra...)
				tr := train.New(build, opts...)
				defer tr.Close()
				rep, err := tr.Fit(context.Background(), trainSet, testSet, epochs)
				if err != nil {
					t.Fatal(err)
				}
				return rep.Curve, tr.Network().SnapshotWeights()
			}

			gotCurve, gotW := run()
			if !sameWeights(wantW, gotW) {
				t.Fatalf("%s/%s: façade weights deviate from the direct engine path", kind, mit.Name())
			}
			for i := range wantCurve {
				if wantCurve[i] != gotCurve[i] {
					t.Fatalf("%s/%s: façade curve deviates at epoch %d: %v vs %v", kind, mit.Name(), i+1, gotCurve[i], wantCurve[i])
				}
			}
			_, unpooledW := run(train.WithUnpooled())
			if !sameWeights(wantW, unpooledW) {
				t.Fatalf("%s/%s: WithUnpooled deviates from the pooled trajectory", kind, mit.Name())
			}
		}
	}
}

// TestFacadeSGDMMatchesReference proves the SGDM mode reproduces the
// hand-wired mini-batch reference bit for bit.
func TestFacadeSGDMMatchesReference(t *testing.T) {
	trainSet, testSet, build := blobTask()
	ref := train.RefHyper{Eta: 0.1, Momentum: 0.9, WeightDecay: 1e-4, RefBatch: 16}
	const epochs, seed = 3, 9

	net := build(seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	updatesPerEpoch := (trainSet.Len() + ref.RefBatch - 1) / ref.RefBatch
	total := updatesPerEpoch * epochs
	cfg := core.Config{LR: ref.Eta, Momentum: ref.Momentum, WeightDecay: ref.WeightDecay,
		Schedule: sched.MultiStep{Base: ref.Eta, Milestones: []int{total / 2, total * 3 / 4}, Gamma: 0.1}}
	sgd := core.NewSGDTrainer(net, cfg, ref.RefBatch)
	for e := 0; e < epochs; e++ {
		sgd.TrainEpoch(trainSet, trainSet.Perm(rng), nil, rng)
	}

	tr := train.New(build, train.WithSGDM(), train.WithRefHyper(ref), train.WithSeed(seed))
	defer tr.Close()
	if _, err := tr.Fit(context.Background(), trainSet, testSet, epochs); err != nil {
		t.Fatal(err)
	}
	if !sameWeights(net.SnapshotWeights(), tr.Network().SnapshotWeights()) {
		t.Fatal("SGDM façade deviates from the hand-wired reference")
	}
}

// settlesTo waits briefly for the scheduler to retire exiting goroutines.
func settlesTo(baseline int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// TestFitCancelMidEpoch is the cancellation contract for every engine:
// cancelling the context partway through an epoch must stop Fit with the
// context's error, close the engine, and leave zero leaked goroutines —
// verified under -race in CI.
func TestFitCancelMidEpoch(t *testing.T) {
	trainSet, testSet, _ := func() (*data.Dataset, *data.Dataset, train.Builder) {
		tr, te := data.GaussianBlobs(8, 4, 300, 16, 3, 0.8, 11)
		return tr, te, nil
	}()
	build := func(seed int64) *nn.Network { return models.DeepMLP(8, 12, 4, 4, seed) }
	baseline := runtime.NumGoroutine()
	for _, kind := range []string{"seq", "lockstep", "async"} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := 0
		tr := train.New(build,
			train.WithEngine(kind),
			train.OnSampleDone(func(e train.SampleEvent) {
				if e.Completed == 20 {
					cancelled++
					cancel()
				}
			}))
		rep, err := tr.Fit(ctx, trainSet, testSet, 4)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Fit returned %v, want context.Canceled", kind, err)
		}
		if cancelled != 1 {
			t.Fatalf("%s: cancel hook fired %d times", kind, cancelled)
		}
		if rep.Epochs != 0 {
			t.Fatalf("%s: cancelled first epoch still reported %d completed epochs", kind, rep.Epochs)
		}
		if rep.Samples < 20 || rep.Samples >= trainSet.Len() {
			t.Fatalf("%s: cancelled run completed %d samples, want partial epoch", kind, rep.Samples)
		}
		// The Trainer must have closed itself: further use is rejected and
		// every stage goroutine is gone.
		if _, err := tr.Fit(context.Background(), trainSet, testSet, 1); err == nil {
			t.Fatalf("%s: Fit after cancellation-close succeeded", kind)
		}
		cancel()
		if !settlesTo(baseline) {
			t.Fatalf("%s: goroutines leaked after cancelled Fit: baseline %d, now %d", kind, baseline, runtime.NumGoroutine())
		}
	}
}

// TestHookOrderDeterministic pins the callback contract: the seq and
// lockstep engines must deliver the exact same OnSampleDone sequence
// (epochs, IDs, losses, counters) — the lockstep schedule is bit-identical
// to the sequential one, and hooks run on the Fit goroutine in completion
// order.
func TestHookOrderDeterministic(t *testing.T) {
	trainSet, testSet, build := blobTask()
	record := func(kind string) []train.SampleEvent {
		var events []train.SampleEvent
		epochEnds := 0
		tr := train.New(build,
			train.WithEngine(kind),
			train.WithSeed(5),
			train.OnSampleDone(func(e train.SampleEvent) { events = append(events, e) }),
			train.OnEpochEnd(func(e train.EpochEvent) { epochEnds++ }))
		defer tr.Close()
		rep, err := tr.Fit(context.Background(), trainSet, testSet, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != rep.Samples || rep.Samples != 2*trainSet.Len() {
			t.Fatalf("%s: %d sample events for %d samples", kind, len(events), rep.Samples)
		}
		if epochEnds != 2 {
			t.Fatalf("%s: %d epoch-end events, want 2", kind, epochEnds)
		}
		return events
	}
	seq := record("seq")
	lock := record("lockstep")
	for i := range seq {
		if seq[i] != lock[i] {
			t.Fatalf("event %d differs between seq and lockstep: %+v vs %+v", i, seq[i], lock[i])
		}
	}
	// Within an epoch, samples complete in submission order, and the
	// lifetime counter is contiguous.
	for i := range seq {
		if seq[i].Completed != i+1 {
			t.Fatalf("event %d has Completed=%d", i, seq[i].Completed)
		}
		wantEpoch := 1 + i/trainSet.Len()
		if seq[i].Epoch != wantEpoch {
			t.Fatalf("event %d in epoch %d, want %d", i, seq[i].Epoch, wantEpoch)
		}
		if seq[i].ID != i {
			t.Fatalf("event %d has ID %d, want %d", i, seq[i].ID, i)
		}
	}
}

// TestCheckpointResume round-trips WithCheckpointEvery + Resume: a fresh
// Trainer resumed from the snapshot must hold bit-identical weights, and
// continuing it must match continuing the original in-memory Trainer
// (including the LR-schedule position).
func TestCheckpointResume(t *testing.T) {
	trainSet, testSet, build := blobTask()
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	var ckpts []train.CheckpointEvent
	// Schedule over 4 planned epochs; the original trains 2, checkpoints,
	// then trains 2 more.
	common := func() []train.Option {
		return []train.Option{
			train.WithEngine("seq"),
			train.WithSeed(3),
			train.WithSchedule(sched.MultiStep{Base: 0.02, Milestones: []int{100, 190}, Gamma: 0.5}),
		}
	}
	orig := train.New(build, append(common(),
		train.WithCheckpointEvery(2, path),
		train.OnCheckpoint(func(e train.CheckpointEvent) { ckpts = append(ckpts, e) }))...)
	defer orig.Close()
	if _, err := orig.Fit(context.Background(), trainSet, testSet, 2); err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0].Epoch != 2 || ckpts[0].Path != path {
		t.Fatalf("checkpoint events %+v", ckpts)
	}
	snapW := orig.Network().SnapshotWeights()

	// Resume into a fresh Trainer with a different build seed: the restore
	// must overwrite its initialization completely.
	resumed := train.New(build, append(common(), train.WithSeed(99))...)
	defer resumed.Close()
	if err := resumed.Resume(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Fit(context.Background(), trainSet, testSet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameWeights(snapW, resumed.Network().SnapshotWeights()) {
		t.Fatal("resumed weights differ from the snapshot")
	}
	if rep.ValAcc < 0 || rep.ValAcc > 1 {
		t.Fatalf("zero-epoch Fit evaluation implausible: %v", rep.ValAcc)
	}

	// Continue a second resumed Trainer for two epochs and compare against
	// a hand-wired continuation: the snapshot restored into a fresh
	// sequential engine, trained on the same permutation stream. (Resume
	// restores training state but not the data-order stream — the
	// documented contract — so a resumed Trainer replays permutations from
	// its seed; the reference arm consumes the identical stream.) Weights,
	// per-stage optimizer state and the LR-schedule position must all have
	// round-tripped: the continuations match bit for bit.
	resumed2 := train.New(build, common()...)
	defer resumed2.Close()
	if err := resumed2.Resume(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed2.Fit(context.Background(), trainSet, testSet, 2); err != nil {
		t.Fatal(err)
	}

	netRef := build(42) // arbitrary init, overwritten by the restore
	cfg := core.ScaledConfig(train.DefaultRef.Eta, train.DefaultRef.Momentum, train.DefaultRef.RefBatch, 1)
	cfg.WeightDecay = train.DefaultRef.WeightDecay
	cfg.Schedule = sched.MultiStep{Base: 0.02, Milestones: []int{100, 190}, Gamma: 0.5}
	engRef := core.NewPBTrainer(netRef, cfg)
	if _, err := checkpoint.LoadPipeline(path, netRef, engRef); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3 * 7919))
	for e := 0; e < 2; e++ {
		if _, _, err := core.RunEpoch(context.Background(), engRef, trainSet, trainSet.Perm(rng), nil, rng, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sameWeights(netRef.SnapshotWeights(), resumed2.Network().SnapshotWeights()) {
		t.Fatal("resumed continuation deviates from the hand-wired restored engine")
	}
}

// TestOptionAndInputValidation pins the error surface: invalid options and
// inputs are reported by Fit, not silently absorbed.
func TestOptionAndInputValidation(t *testing.T) {
	trainSet, testSet, build := blobTask()
	cases := map[string]*train.Trainer{
		"negative workers": train.New(build, train.WithWorkers(-1)),
		"zero ref batch":   train.New(build, train.WithRefHyper(train.RefHyper{Eta: 0.1, RefBatch: 0})),
		"bad checkpoint":   train.New(build, train.WithCheckpointEvery(0, "x")),
		"empty ckpt path":  train.New(build, train.WithCheckpointEvery(1, "")),
		"unknown engine":   train.New(build, train.WithEngine("warp")),
		"too many workers": train.New(build, train.WithWorkers(1000)),
		"nil builder":      train.New(nil),
	}
	for name, tr := range cases {
		if _, err := tr.Fit(context.Background(), trainSet, testSet, 1); err == nil {
			t.Errorf("%s: Fit succeeded", name)
		}
		tr.Close()
	}
	tr := train.New(build)
	if _, err := tr.Fit(context.Background(), nil, testSet, 1); err == nil {
		t.Error("nil training set: Fit succeeded")
	}
	if _, err := tr.Fit(context.Background(), trainSet, testSet, -1); err == nil {
		t.Error("negative epochs: Fit succeeded")
	}
	tr.Close()
	if _, err := tr.Fit(context.Background(), trainSet, testSet, 1); err == nil {
		t.Error("Fit after Close succeeded")
	}
	if err := tr.Resume(context.Background(), "nowhere.ckpt"); err == nil {
		t.Error("Resume after Close succeeded")
	}
}

// TestFacadeAsyncEnginesTrain drives the concurrent engines through the
// façade end to end: they must complete every sample, respect the staleness
// bound, and report sane stats.
func TestFacadeAsyncEnginesTrain(t *testing.T) {
	trainSet, testSet, build := blobTask()
	for _, kind := range []string{"async", "lockstep"} {
		tr := train.New(build, train.WithEngine(kind), train.WithSeed(2))
		rep, err := tr.Fit(context.Background(), trainSet, testSet, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Samples != 2*trainSet.Len() {
			t.Fatalf("%s: completed %d of %d samples", kind, rep.Samples, 2*trainSet.Len())
		}
		bound := 2 * (rep.Stages - 1)
		if rep.MaxStaleness > bound {
			t.Fatalf("%s: max staleness %d exceeds bound %d", kind, rep.MaxStaleness, bound)
		}
		if len(rep.Curve) != 2 {
			t.Fatalf("%s: curve %v", kind, rep.Curve)
		}
		tr.Close()
	}
}

// TestFacadeWorkersRegroup checks WithWorkers coarsens the pipeline.
func TestFacadeWorkersRegroup(t *testing.T) {
	trainSet, testSet, build := blobTask()
	tr := train.New(build, train.WithWorkers(2))
	defer tr.Close()
	rep, err := tr.Fit(context.Background(), trainSet, testSet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages != 2 {
		t.Fatalf("regrouped pipeline has %d stages, want 2", rep.Stages)
	}
}

// TestFacadeAugmenterNilRNGSafe exercises the satellite fix through the
// façade: an augmenter is usable without wiring any RNG by hand.
func TestFacadeAugmenterNilRNGSafe(t *testing.T) {
	imgs := data.CIFAR10Like(8, 24, 16, 3)
	trainSet, testSet := data.GenerateImages(imgs)
	build := func(seed int64) *nn.Network {
		return models.ResNet(models.MiniResNet(8, 4, 8, 10, seed))
	}
	tr := train.New(build, train.WithAugment(data.PadCropFlip{Channels: 3, Size: 8, Pad: 1}))
	defer tr.Close()
	if _, err := tr.Fit(context.Background(), trainSet, testSet, 1); err != nil {
		t.Fatal(err)
	}
}

// TestSGDMCheckpointRestoresSchedule pins the SGDM snapshot contract: the
// update-step counter (the LR-schedule position) must round-trip through
// WithCheckpointEvery + Resume. A milestone fires during the saved run, so
// a resume that restarted the schedule would train its continuation at a
// 10× larger rate and deviate immediately.
func TestSGDMCheckpointRestoresSchedule(t *testing.T) {
	trainSet, testSet, build := blobTask()
	path := filepath.Join(t.TempDir(), "sgdm.ckpt")
	// Batch 16 over 64 samples = 4 updates/epoch; decay after epoch 1.
	schedule := sched.MultiStep{Base: 0.1, Milestones: []int{4}, Gamma: 0.1}
	ref := train.RefHyper{Eta: 0.1, Momentum: 0.9, WeightDecay: 1e-4, RefBatch: 16}
	opts := func() []train.Option {
		return []train.Option{
			train.WithSGDM(), train.WithSeed(3),
			train.WithRefHyper(ref), train.WithSchedule(schedule),
		}
	}
	orig := train.New(build, append(opts(), train.WithCheckpointEvery(2, path))...)
	defer orig.Close()
	if _, err := orig.Fit(context.Background(), trainSet, testSet, 2); err != nil {
		t.Fatal(err)
	}

	resumed := train.New(build, opts()...)
	defer resumed.Close()
	if err := resumed.Resume(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Fit(context.Background(), trainSet, testSet, 1); err != nil {
		t.Fatal(err)
	}

	// Hand-wired reference: restore the snapshot (weights, velocities AND
	// step) into a fresh SGDTrainer and train one epoch on the permutation
	// stream the resumed Trainer replays from its seed.
	netRef := build(42)
	cfg := core.Config{LR: ref.Eta, Momentum: ref.Momentum, WeightDecay: ref.WeightDecay, Schedule: schedule}
	sgdRef := core.NewSGDTrainer(netRef, cfg, ref.RefBatch)
	st, err := checkpoint.Load(path, netRef, sgdRef.Optimizer())
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 8 {
		t.Fatalf("snapshot carries step %d, want 8 (2 epochs × 4 updates)", st.Step)
	}
	sgdRef.SetStep(st.Step)
	rng := rand.New(rand.NewSource(3 * 7919))
	sgdRef.TrainEpoch(trainSet, trainSet.Perm(rng), nil, rng)
	if !sameWeights(netRef.SnapshotWeights(), resumed.Network().SnapshotWeights()) {
		t.Fatal("resumed SGDM continuation deviates: schedule position not restored")
	}
}

// TestZeroEpochFirstFitKeepsScheduleSane: a zero-epoch first Fit (the
// evaluate-a-resumed-snapshot idiom) plans zero updates; the default
// schedule must fall back to a constant rate instead of installing
// milestones at {0,0} that would permanently decay the LR 100× for every
// later Fit on the same Trainer.
func TestZeroEpochFirstFitKeepsScheduleSane(t *testing.T) {
	trainSet, testSet, build := blobTask()
	tr := train.New(build, train.WithSeed(3))
	defer tr.Close()
	if _, err := tr.Fit(context.Background(), trainSet, testSet, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(context.Background(), trainSet, testSet, 2); err != nil {
		t.Fatal(err)
	}

	// Reference: a hand-wired engine at the same scaled rate, constant
	// schedule, same stream (the zero-epoch Fit drew no permutations).
	net := build(3)
	cfg := core.ScaledConfig(train.DefaultRef.Eta, train.DefaultRef.Momentum, train.DefaultRef.RefBatch, 1)
	cfg.WeightDecay = train.DefaultRef.WeightDecay
	cfg.Schedule = sched.Constant{Base: cfg.LR}
	eng := core.NewPBTrainer(net, cfg)
	rng := rand.New(rand.NewSource(3 * 7919))
	for e := 0; e < 2; e++ {
		if _, _, err := core.RunEpoch(context.Background(), eng, trainSet, trainSet.Perm(rng), nil, rng, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sameWeights(net.SnapshotWeights(), tr.Network().SnapshotWeights()) {
		t.Fatal("training after a zero-epoch Fit deviates from the constant-rate reference (degenerate schedule installed?)")
	}
}

// TestResumePipelineSnapshotIntoSGDMRefused: a per-stage pipeline snapshot
// must not restore into an SGDM Trainer — a silent "success" would zero
// the momentum and misread the schedule step.
func TestResumePipelineSnapshotIntoSGDMRefused(t *testing.T) {
	trainSet, testSet, build := blobTask()
	path := filepath.Join(t.TempDir(), "pb.ckpt")
	pb := train.New(build, train.WithSeed(3), train.WithCheckpointEvery(1, path))
	defer pb.Close()
	if _, err := pb.Fit(context.Background(), trainSet, testSet, 1); err != nil {
		t.Fatal(err)
	}
	sgdm := train.New(build, train.WithSGDM(), train.WithSeed(3))
	defer sgdm.Close()
	if err := sgdm.Resume(context.Background(), path); err != nil {
		// Resume before the first Fit defers the restore; the refusal may
		// surface here (already built) or at Fit below.
		return
	}
	if _, err := sgdm.Fit(context.Background(), trainSet, testSet, 1); err == nil {
		t.Fatal("pipeline snapshot restored into an SGDM Trainer without error")
	}
}

// TestTrainerCheckpointMethod: the manual snapshot API must round-trip like
// the periodic one, and refuse before the first build.
func TestTrainerCheckpointMethod(t *testing.T) {
	trainSet, testSet, build := blobTask()
	path := filepath.Join(t.TempDir(), "manual.ckpt")
	tr := train.New(build, train.WithSeed(3))
	defer tr.Close()
	if err := tr.Checkpoint(path); err == nil {
		t.Fatal("Checkpoint before the first Fit succeeded")
	}
	if _, err := tr.Fit(context.Background(), trainSet, testSet, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	re := train.New(build, train.WithSeed(99))
	defer re.Close()
	if err := re.Resume(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Fit(context.Background(), trainSet, testSet, 0); err != nil {
		t.Fatal(err)
	}
	if !sameWeights(tr.Network().SnapshotWeights(), re.Network().SnapshotWeights()) {
		t.Fatal("manual Checkpoint did not round-trip the weights")
	}
}

// TestFacadeClusterR1MatchesBare extends the R=1 determinism anchor through
// the façade: WithReplicas(1, policy) must be invisible — identical weights
// and validation curve to the plain engine run — for every policy.
func TestFacadeClusterR1MatchesBare(t *testing.T) {
	trainSet, testSet, build := blobTask()
	for _, policy := range []string{"none", "avg-every-4", "sync-grad"} {
		bare := train.New(build, train.WithEngine("seq"), train.WithSeed(5))
		repBare, err := bare.Fit(context.Background(), trainSet, testSet, 2)
		if err != nil {
			t.Fatal(err)
		}
		clustered := train.New(build, train.WithEngine("seq"), train.WithSeed(5),
			train.WithReplicas(1, policy))
		repCl, err := clustered.Fit(context.Background(), trainSet, testSet, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameWeights(bare.Network().SnapshotWeights(), clustered.Network().SnapshotWeights()) {
			t.Fatalf("policy %s: Cluster(R=1) weights deviate from the bare engine", policy)
		}
		if len(repBare.Curve) != len(repCl.Curve) {
			t.Fatalf("policy %s: curve lengths differ", policy)
		}
		for i := range repBare.Curve {
			if repBare.Curve[i] != repCl.Curve[i] {
				t.Fatalf("policy %s: validation curve deviates at epoch %d", policy, i)
			}
		}
		if repCl.Replicas != 1 || repCl.Syncs != 0 {
			t.Fatalf("policy %s: report %d replicas / %d syncs, want 1 / 0", policy, repCl.Replicas, repCl.Syncs)
		}
		bare.Close()
		clustered.Close()
	}
}

// TestFacadeClusterTrains drives a real replicated run through the façade:
// R=2 sync-grad learns the blob task, reports cluster stats, and its
// trajectory is run-to-run deterministic.
func TestFacadeClusterTrains(t *testing.T) {
	trainSet, testSet, build := blobTask()
	run := func() (train.Report, [][]float64) {
		tr := train.New(build, train.WithEngine("seq"), train.WithSeed(7),
			train.WithReplicas(2, "sync-grad"))
		defer tr.Close()
		rep, err := tr.Fit(context.Background(), trainSet, testSet, 10)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tr.Network().SnapshotWeights()
	}
	repA, wA := run()
	repB, wB := run()
	if !sameWeights(wA, wB) {
		t.Fatal("sync-grad façade run is not deterministic")
	}
	if repA.Replicas != 2 || repA.Syncs == 0 {
		t.Fatalf("report %d replicas / %d syncs, want 2 replicas and drain syncs", repA.Replicas, repA.Syncs)
	}
	if repA.ValAcc < 0.5 {
		t.Fatalf("replicated run failed to learn: val acc %.2f", repA.ValAcc)
	}
	if repA.Samples != 10*trainSet.Len() || repB.Samples != repA.Samples {
		t.Fatalf("sample accounting %d, want %d", repA.Samples, 10*trainSet.Len())
	}
}

// TestFacadeClusterCheckpointResume saves a replicated run's snapshot via
// the façade and resumes it into a fresh Trainer: the continued trajectory
// must match the uninterrupted one exactly, and mismatched resume targets
// fail loudly.
func TestFacadeClusterCheckpointResume(t *testing.T) {
	trainSet, testSet, build := blobTask()
	path := filepath.Join(t.TempDir(), "cluster.ckpt")
	schedule := sched.MultiStep{Base: 0.02, Milestones: []int{60, 110}, Gamma: 0.5}
	opts := func() []train.Option {
		return []train.Option{train.WithEngine("seq"), train.WithSeed(9),
			train.WithSchedule(schedule),
			train.WithReplicas(2, "avg-every-8")}
	}
	// Train one epoch and checkpoint through the façade.
	half := train.New(build, opts()...)
	if _, err := half.Fit(context.Background(), trainSet, testSet, 1); err != nil {
		t.Fatal(err)
	}
	if err := half.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	half.Close()
	// Resume into a fresh Trainer and continue one epoch. (The data-order
	// RNG is not part of a snapshot — documented contract — so the fresh
	// Trainer replays the permutation stream from its seed; the hand-wired
	// reference below consumes the identical stream.)
	resumed := train.New(build, opts()...)
	defer resumed.Close()
	if err := resumed.Resume(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Fit(context.Background(), trainSet, testSet, 1); err != nil {
		t.Fatal(err)
	}
	// Hand-wired reference continuation: the snapshot restored into a bare
	// cluster, trained on the same permutation stream with the façade's
	// exact hyperparameters. Per-replica weights, velocities, the sync
	// clock and the shard cursor must all have round-tripped: the
	// continuations match bit for bit.
	nets := make([]*nn.Network, 2)
	nets[0] = build(42) // arbitrary init, overwritten by the restore
	nets[1] = build(43)
	nets[1].RestoreWeights(nets[0].SnapshotWeights())
	cfg := core.ScaledConfig(train.DefaultRef.Eta, train.DefaultRef.Momentum, train.DefaultRef.RefBatch, 1)
	cfg.WeightDecay = train.DefaultRef.WeightDecay
	cfg.Schedule = schedule
	clRef, err := core.NewCluster(nets, cfg, core.ClusterConfig{
		Replicas: 2, Engine: "seq", Policy: syncpol.AvgEvery{K: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clRef.Close()
	if _, err := checkpoint.LoadCluster(path, clRef); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9 * 7919))
	if _, _, err := core.RunEpoch(context.Background(), clRef, trainSet, trainSet.Perm(rng), nil, rng, nil); err != nil {
		t.Fatal(err)
	}
	if !sameWeights(nets[0].SnapshotWeights(), resumed.Network().SnapshotWeights()) {
		t.Fatal("resumed cluster continuation deviates from the hand-wired restored cluster")
	}
	// Mismatched cluster shape must be rejected.
	wrong := train.New(build, train.WithEngine("seq"), train.WithSeed(9),
		train.WithReplicas(3, "avg-every-8"))
	defer wrong.Close()
	if err := wrong.Resume(context.Background(), path); err != nil {
		t.Fatal(err) // deferred restore: surfaces at Fit
	}
	if _, err := wrong.Fit(context.Background(), trainSet, testSet, 1); err == nil {
		t.Fatal("2-replica snapshot resumed into a 3-replica cluster")
	}
	// A cluster snapshot must not resume into a bare engine.
	bare := train.New(build, train.WithEngine("seq"), train.WithSeed(9))
	defer bare.Close()
	if err := bare.Resume(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Fit(context.Background(), trainSet, testSet, 1); err == nil {
		t.Fatal("cluster snapshot resumed into a single-pipeline Trainer")
	}
}

// TestFacadeClusterRejectsSGDM pins the option conflict.
func TestFacadeClusterRejectsSGDM(t *testing.T) {
	trainSet, testSet, build := blobTask()
	tr := train.New(build, train.WithSGDM(), train.WithReplicas(2, "none"))
	defer tr.Close()
	if _, err := tr.Fit(context.Background(), trainSet, testSet, 1); err == nil {
		t.Fatal("SGDM + WithReplicas accepted")
	}
	bad := train.New(build, train.WithReplicas(2, "avg-every-zero"))
	defer bad.Close()
	if _, err := bad.Fit(context.Background(), trainSet, testSet, 1); err == nil {
		t.Fatal("unparsable sync policy accepted")
	}
}

// TestFacadeStageDelayDoesNotPerturb proves the chaos hook through the
// façade is pure wall-clock: a Fit with WithStageDelay stalls the pipeline
// but finishes with weights bit-identical to an undelayed run, for both the
// single-engine and cluster paths, and WithAdmitBound rides along untouched
// on the stepped engines.
func TestFacadeStageDelayDoesNotPerturb(t *testing.T) {
	trainSet, testSet, build := blobTask()
	hook := func(p core.ChaosPoint) time.Duration {
		if p.Stage == 1 && p.Update%7 == 0 {
			return 50 * time.Microsecond
		}
		return 0
	}
	run := func(replicas int, extra ...train.Option) [][]float64 {
		opts := []train.Option{train.WithEngine("seq"), train.WithSeed(5)}
		if replicas > 1 {
			opts = append(opts, train.WithReplicas(replicas, "sync-grad"))
		}
		tr := train.New(build, append(opts, extra...)...)
		defer tr.Close()
		if _, err := tr.Fit(context.Background(), trainSet, testSet, 2); err != nil {
			t.Fatal(err)
		}
		return tr.Network().SnapshotWeights()
	}
	if !sameWeights(run(1), run(1, train.WithStageDelay(hook))) {
		t.Fatal("WithStageDelay perturbed the single-engine trajectory")
	}
	if !sameWeights(run(2), run(2, train.WithStageDelay(hook), train.WithAdmitBound(4))) {
		t.Fatal("WithStageDelay/WithAdmitBound perturbed the cluster trajectory")
	}
	bad := train.New(build, train.WithAdmitBound(-1))
	defer bad.Close()
	if _, err := bad.Fit(context.Background(), trainSet, testSet, 1); err == nil {
		t.Fatal("negative admit bound accepted")
	}
}

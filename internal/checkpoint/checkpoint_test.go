package checkpoint

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/sched"
	syncpol "repro/internal/sync"
	"repro/internal/tensor"
)

// roundTrip writes st to a fresh file and reads it back.
func roundTrip(t *testing.T, st *State) *State {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	if err := Write(path, st); err != nil {
		t.Fatal(err)
	}
	st2, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return st2
}

// sameParams fails unless two networks hold bit-identical weights.
func sameParams(t *testing.T, what string, a, b *nn.Network) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pb[i].W, 0) {
			t.Fatalf("%s: weights differ at %s", what, pa[i].Name)
		}
	}
}

func TestRoundTripWeights(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 1)
	step := 42
	st, err := Capture(SGDM(net, nil, &step), map[string]string{"method": "pb"})
	if err != nil {
		t.Fatal(err)
	}
	st2 := roundTrip(t, st)
	if st2.Replicas[0].Step != 42 || st2.Meta["method"] != "pb" {
		t.Fatalf("metadata lost: %+v", st2)
	}
	net2 := models.DeepMLP(4, 8, 2, 3, 99)
	if err := RestoreForward(st2, net2); err != nil {
		t.Fatal(err)
	}
	sameParams(t, "forward restore", net, net2)
}

func TestRoundTripVelocities(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 2)
	opt := optim.NewMomentum(0.1, 0.9)
	// Build some velocity state.
	for _, p := range net.Params() {
		p.Grad().Fill(0.5)
	}
	opt.Step(net.Params())
	step := 1
	st, err := Capture(SGDM(net, opt, &step), nil)
	if err != nil {
		t.Fatal(err)
	}
	net2 := models.DeepMLP(4, 8, 2, 3, 2)
	opt2 := optim.NewMomentum(0.1, 0.9)
	step2 := 0
	if err := Restore(st, SGDM(net2, opt2, &step2)); err != nil {
		t.Fatal(err)
	}
	if step2 != 1 {
		t.Fatalf("restored step %d, want 1", step2)
	}
	p1, p2 := net.Params(), net2.Params()
	for i := range p1 {
		v1, v2 := opt.Vel(p1[i]), opt2.Vel(p2[i])
		for j := range v1 {
			if v1[j] != v2[j] {
				t.Fatal("velocities differ after restore")
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	net := models.DeepMLP(4, 8, 2, 3, 3)
	if err := Save(path, net, nil, 7, nil); err != nil {
		t.Fatal(err)
	}
	net2 := models.DeepMLP(4, 8, 2, 3, 30)
	st, err := LoadForward(path, net2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicas[0].Step != 7 {
		t.Fatalf("step %d", st.Replicas[0].Step)
	}
	sameParams(t, "file round trip", net, net2)
}

func TestRestoreRejectsMismatchedArch(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 4)
	step := 0
	st, _ := Capture(SGDM(net, nil, &step), nil)
	other := models.DeepMLP(4, 16, 2, 3, 4) // wider: size mismatch
	if err := Restore(st, SGDM(other, nil, &step)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	deeper := models.DeepMLP(4, 8, 3, 3, 4) // extra layer: missing params
	if err := Restore(st, SGDM(deeper, nil, &step)); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestRestoreRejectsWrongVersion(t *testing.T) {
	net := models.DeepMLP(4, 8, 1, 2, 5)
	step := 0
	st, _ := Capture(SGDM(net, nil, &step), nil)
	st.Version = 99
	if err := Restore(st, SGDM(net, nil, &step)); err == nil {
		t.Fatal("expected version error")
	}
	if err := RestoreForward(st, net); err == nil {
		t.Fatal("expected version error from the forward restore")
	}
}

func TestResumeProducesSameTrajectory(t *testing.T) {
	// Train 1 epoch, checkpoint, train another epoch — must equal an
	// uninterrupted 2-epoch run (weights + velocities both restored).
	seed := int64(6)
	train, _ := data.GaussianBlobs(6, 3, 48, 0, 1, 0.5, seed)

	// Uninterrupted run.
	netA := models.DeepMLP(6, 8, 2, 3, seed)
	sgdA := core.NewSGDTrainer(netA, core.Config{LR: 0.05, Momentum: 0.9}, 8)
	sgdA.TrainEpoch(train, nil, nil, nil)
	sgdA.TrainEpoch(train, nil, nil, nil)

	// Interrupted run: epoch, save, restore into a fresh net, epoch.
	netB := models.DeepMLP(6, 8, 2, 3, seed)
	cfg := core.Config{LR: 0.05, Momentum: 0.9}
	sgdB := core.NewSGDTrainer(netB, cfg, 8)
	sgdB.TrainEpoch(train, nil, nil, nil)
	st, err := Capture(SGDM(netB, sgdB.Optimizer(), sgdB.StepCounter()), nil)
	if err != nil {
		t.Fatal(err)
	}
	netC := models.DeepMLP(6, 8, 2, 3, seed+1) // different init, will be overwritten
	sgdC := core.NewSGDTrainer(netC, cfg, 8)
	if err := Restore(st, SGDM(netC, sgdC.Optimizer(), sgdC.StepCounter())); err != nil {
		t.Fatal(err)
	}
	sgdC.TrainEpoch(train, nil, nil, nil)

	pa, pc := netA.Params(), netC.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pc[i].W, 1e-12) {
			t.Fatal("resumed trajectory deviates from uninterrupted run")
		}
	}
}

// TestPipelineResumeMatchesUninterrupted is the multi-optimizer resume test:
// a PB engine has one optimizer per stage, and the LWPw mitigation
// additionally needs per-stage previous-weight buffers; a resumed run must
// reproduce the uninterrupted trajectory exactly, including the LR-schedule
// position.
func TestPipelineResumeMatchesUninterrupted(t *testing.T) {
	seed := int64(8)
	train, _ := data.GaussianBlobs(6, 3, 64, 0, 1, 0.5, seed)
	mk := func(netSeed int64) (*core.PBTrainer, *nn.Network) {
		net := models.DeepMLP(6, 8, 3, 3, netSeed)
		cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = core.LWPwDSCD // exercises velocities AND prevMap
		cfg.Schedule = sched.MultiStep{Base: cfg.LR, Milestones: []int{50, 90}, Gamma: 0.5}
		return core.NewPBTrainer(net, cfg), net
	}
	feed := func(tr *core.PBTrainer, lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := train.Sample(i)
			tr.Submit(context.Background(), x, y)
		}
		tr.Drain(context.Background())
	}

	// Reference arm: train half an epoch, snapshot, keep the trainer in
	// memory and finish. The resumed arm must match this exactly. (A drain
	// inserts pipeline refill steps, so an uninterrupted no-drain run is
	// not the comparison point — continuing the same trainer is.)
	trB, netB := mk(seed)
	feed(trB, 0, train.Len()/2)
	st, err := Capture(Pipeline{Net: netB, Engine: trB}, map[string]string{"mit": "LWPwDSCD"})
	if err != nil {
		t.Fatal(err)
	}
	st2 := roundTrip(t, st)
	trC, netC := mk(seed + 100) // different init, overwritten by restore
	if err := Restore(st2, Pipeline{Net: netC, Engine: trC}); err != nil {
		t.Fatal(err)
	}
	if trC.UpdateStep() != trB.UpdateStep() {
		t.Fatalf("schedule position %d, want %d", trC.UpdateStep(), trB.UpdateStep())
	}
	for i := 0; i < trC.NumStages(); i++ {
		if trC.StageUpdates(i) != trB.StageUpdates(i) {
			t.Fatalf("stage %d updates %d, want %d", i, trC.StageUpdates(i), trB.StageUpdates(i))
		}
	}
	feed(trB, train.Len()/2, train.Len())
	feed(trC, train.Len()/2, train.Len())
	sameParams(t, "resumed PB trajectory", netB, netC)
}

// TestCaptureDoesNotMutateOptimizer locks in that capturing a snapshot never
// allocates velocity buffers as a side effect (opt.Vel allocates and would
// therefore mutate the optimizer).
func TestCaptureDoesNotMutateOptimizer(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 9)
	opt := optim.NewMomentum(0.1, 0.9)
	step := 0
	st, err := Capture(SGDM(net, opt, &step), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.Replicas[0].Stages[0].Velocities); n != 0 {
		t.Fatalf("untrained optimizer captured %d velocity buffers", n)
	}
	for _, p := range net.Params() {
		if opt.VelIfTracked(p) != nil {
			t.Fatalf("Capture allocated a velocity buffer for %s", p.Name)
		}
	}
}

// TestPipelineCheckpointAcrossEngines exercises the checkpoint view on the
// concurrent engines: the lockstep (parallel) engine resumes exactly, and a
// drained free-running async engine's state can be captured and restored
// into a sequential trainer (cross-engine resume; the async trajectory
// itself is nondeterministic, so equality is asserted on the restored state,
// not on continued training).
func TestPipelineCheckpointAcrossEngines(t *testing.T) {
	seed := int64(12)
	train, _ := data.GaussianBlobs(6, 3, 64, 0, 1, 0.5, seed)
	cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
	cfg.Mitigation = core.LWPvDSCD
	cfg.Schedule = sched.MultiStep{Base: cfg.LR, Milestones: []int{50, 90}, Gamma: 0.5}
	feed := func(tr interface {
		Submit(ctx context.Context, x *tensor.Tensor, label int) ([]*core.Result, error)
		Drain(ctx context.Context) ([]*core.Result, error)
	}, lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := train.Sample(i)
			tr.Submit(context.Background(), x, y)
		}
		tr.Drain(context.Background())
	}

	// Lockstep engine: exact resume.
	netB := models.DeepMLP(6, 8, 3, 3, seed)
	trB, err := core.NewEngine("lockstep", netB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	feed(trB, 0, train.Len()/2)
	st, err := Capture(Pipeline{Net: netB, Engine: trB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	netC := models.DeepMLP(6, 8, 3, 3, seed+9)
	trC, err := core.NewEngine("lockstep", netC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer trC.Close()
	if err := Restore(st, Pipeline{Net: netC, Engine: trC}); err != nil {
		t.Fatal(err)
	}
	feed(trB, train.Len()/2, train.Len())
	feed(trC, train.Len()/2, train.Len())
	sameParams(t, "lockstep resume", netB, netC)

	// Async free engine → sequential trainer (cross-engine restore).
	netA := models.DeepMLP(6, 8, 3, 3, seed)
	trA := core.NewAsyncPBTrainer(netA, cfg)
	defer trA.Close()
	feed(trA, 0, train.Len()/2)
	stA, err := Capture(Pipeline{Net: netA, Engine: trA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	netS := models.DeepMLP(6, 8, 3, 3, seed+17)
	trS := core.NewPBTrainer(netS, cfg)
	if err := Restore(stA, Pipeline{Net: netS, Engine: trS}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trS.NumStages(); i++ {
		if trS.StageUpdates(i) != trA.StageUpdates(i) {
			t.Fatalf("stage %d updates %d, want %d", i, trS.StageUpdates(i), trA.StageUpdates(i))
		}
	}
	sameParams(t, "async capture/restore", netA, netS)
	feed(trS, train.Len()/2, train.Len()) // resumed trainer keeps training
}

// clusterNets builds r weight-identical replica networks.
func clusterNets(r int, seed int64) []*nn.Network {
	nets := make([]*nn.Network, r)
	nets[0] = models.DeepMLP(6, 8, 3, 3, seed)
	snap := nets[0].SnapshotWeights()
	for i := 1; i < r; i++ {
		nets[i] = models.DeepMLP(6, 8, 3, 3, seed)
		nets[i].RestoreWeights(snap)
	}
	return nets
}

// feedCluster streams samples [lo, hi) through a cluster engine and drains.
func feedCluster(t testing.TB, cl *core.Cluster, ds *data.Dataset, lo, hi int) {
	t.Helper()
	shape := append([]int{1}, ds.Shape...)
	for i := lo; i < hi; i++ {
		x := cl.InputBuffer(shape...)
		copy(x.Data, ds.Samples[i])
		if _, err := cl.Submit(context.Background(), x, ds.Labels[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClusterResumeMatchesUninterrupted is the replicated gold standard: a
// cluster trained one epoch, captured, restored into a fresh cluster and
// trained a second epoch must match — bit for bit — the same cluster kept in
// memory across both epochs: per-replica weights and velocities, the sync
// clock, and the shard cursor all resume. Both sync policies with state are
// exercised (the gradient-reducing sync-grad and the averaging avg-every-k).
func TestClusterResumeMatchesUninterrupted(t *testing.T) {
	seed := int64(21)
	train, _ := data.GaussianBlobs(6, 3, 45, 0, 1, 0.5, seed) // odd: partial tail round
	for _, tc := range []struct {
		engine string
		policy string
	}{
		{"seq", "sync-grad"},
		{"seq", "avg-every-7"},
		{"lockstep", "sync-grad"},
	} {
		t.Run(tc.engine+"/"+tc.policy, func(t *testing.T) {
			mk := func(netSeed int64) (*core.Cluster, []*nn.Network) {
				pol, err := syncpol.Parse(tc.policy)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
				cfg.Mitigation = core.LWPwDSCD // velocities AND prev-weights per stage
				nets := clusterNets(2, netSeed)
				cl, err := core.NewCluster(nets, cfg, core.ClusterConfig{Replicas: 2, Engine: tc.engine, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				return cl, nets
			}
			// Reference arm: epoch, capture, keep training in memory.
			clA, netsA := mk(seed)
			defer clA.Close()
			feedCluster(t, clA, train, 0, train.Len())
			subAt, syncsAt, lastAt := clA.ClusterCursor()
			st, err := Capture(clA, map[string]string{"engine": tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			st2 := roundTrip(t, st)
			feedCluster(t, clA, train, 0, train.Len())

			// Resumed arm: fresh cluster (different init, overwritten), restore,
			// second epoch.
			clB, netsB := mk(seed + 500)
			defer clB.Close()
			if err := Restore(st2, clB); err != nil {
				t.Fatal(err)
			}
			subB, syncsB, lastB := clB.ClusterCursor()
			if subB != subAt || syncsB != syncsAt || lastB != lastAt {
				t.Fatalf("restored cursor (%d,%d,%d), captured (%d,%d,%d)",
					subB, syncsB, lastB, subAt, syncsAt, lastAt)
			}
			feedCluster(t, clB, train, 0, train.Len())

			for r := 0; r < 2; r++ {
				sameParams(t, "replica resumed trajectory", netsA[r], netsB[r])
			}
			sA, sB := clA.Stats(), clB.Stats()
			if sA.Syncs != sB.Syncs {
				t.Fatalf("sync clock after epoch 2: resumed %d vs uninterrupted %d", sB.Syncs, sA.Syncs)
			}
		})
	}
}

// TestClusterSnapshotRejects pins the replica and sync-header validation:
// wrong restore surface, replica-count and policy mismatches all fail loudly
// without mutating.
func TestClusterSnapshotRejects(t *testing.T) {
	cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
	mk := func(r int, policy string) *core.Cluster {
		pol, _ := syncpol.Parse(policy)
		cl, err := core.NewCluster(clusterNets(r, 31), cfg, core.ClusterConfig{Replicas: r, Engine: "seq", Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cl := mk(2, "avg-every-4")
	defer cl.Close()
	st, err := Capture(cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A cluster snapshot cannot restore into a bare pipeline...
	net := models.DeepMLP(6, 8, 3, 3, 31)
	bare := Pipeline{Net: net, Engine: core.NewPBTrainer(net, cfg)}
	if err := Restore(st, bare); err == nil {
		t.Fatal("cluster snapshot restored into a single pipeline")
	}
	// ...nor a pipeline snapshot into a cluster.
	pst, err := Capture(bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Restore(pst, cl); err == nil {
		t.Fatal("pipeline snapshot restored into a cluster")
	}
	// Replica-count mismatch.
	cl3 := mk(3, "avg-every-4")
	defer cl3.Close()
	if err := Restore(st, cl3); err == nil {
		t.Fatal("2-replica snapshot restored into a 3-replica cluster")
	}
	// Policy mismatch.
	clPol := mk(2, "sync-grad")
	defer clPol.Close()
	if err := Restore(st, clPol); err == nil {
		t.Fatal("avg-every-4 snapshot restored under sync-grad")
	}
	// Interval mismatch within the same family.
	clInt := mk(2, "avg-every-9")
	defer clInt.Close()
	if err := Restore(st, clInt); err == nil {
		t.Fatal("avg-every-4 snapshot restored under avg-every-9")
	}
}

// TestClusterSaveLoadFile round-trips a cluster snapshot through disk.
func TestClusterSaveLoadFile(t *testing.T) {
	cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
	train, _ := data.GaussianBlobs(6, 3, 20, 0, 1, 0.5, 41)
	pol, _ := syncpol.Parse("avg-every-5")
	clA, err := core.NewCluster(clusterNets(2, 41), cfg, core.ClusterConfig{Replicas: 2, Engine: "seq", Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	feedCluster(t, clA, train, 0, train.Len())
	st, err := Capture(clA, map[string]string{"scope": "test"})
	if err != nil {
		t.Fatal(err)
	}
	st = roundTrip(t, st)
	netsB := clusterNets(2, 99)
	clB, err := core.NewCluster(netsB, cfg, core.ClusterConfig{Replicas: 2, Engine: "seq", Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	if err := Restore(st, clB); err != nil {
		t.Fatal(err)
	}
	if st.Meta["scope"] != "test" || st.Version != Version || len(st.Replicas) != 2 {
		t.Fatalf("loaded snapshot malformed: version %d, %d replicas, meta %v", st.Version, len(st.Replicas), st.Meta)
	}
	for r := 0; r < 2; r++ {
		sameParams(t, "disk round-trip", clA.ReplicaNet(r), netsB[r])
	}
}

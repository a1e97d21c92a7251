package checkpoint

import (
	"bytes"
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

func TestRoundTripWeights(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 1)
	st, err := Capture(net, nil, 42, map[string]string{"method": "pb"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	st2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Step != 42 || st2.Meta["method"] != "pb" {
		t.Fatalf("metadata lost: %+v", st2)
	}
	// Mutate and restore.
	net2 := models.DeepMLP(4, 8, 2, 3, 99)
	if err := Restore(st2, net2, nil); err != nil {
		t.Fatal(err)
	}
	pa, pb := net.Params(), net2.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pb[i].W, 0) {
			t.Fatal("restored weights differ")
		}
	}
}

func TestRoundTripVelocities(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 2)
	opt := optim.NewMomentum(0.1, 0.9)
	// Build some velocity state.
	for _, p := range net.Params() {
		p.G.Fill(0.5)
	}
	opt.Step(net.Params())
	st, err := Capture(net, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	net2 := models.DeepMLP(4, 8, 2, 3, 2)
	opt2 := optim.NewMomentum(0.1, 0.9)
	if err := Restore(st, net2, opt2); err != nil {
		t.Fatal(err)
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
	st, err := Load(path, net2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 7 {
		t.Fatalf("step %d", st.Step)
	}
	pa, pb := net.Params(), net2.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pb[i].W, 0) {
			t.Fatal("file round trip lost weights")
		}
	}
}

func TestRestoreRejectsMismatchedArch(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 4)
	st, _ := Capture(net, nil, 0, nil)
	other := models.DeepMLP(4, 16, 2, 3, 4) // wider: size mismatch
	if err := Restore(st, other, nil); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	deeper := models.DeepMLP(4, 8, 3, 3, 4) // extra layer: missing params
	if err := Restore(st, deeper, nil); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestRestoreRejectsWrongVersion(t *testing.T) {
	net := models.DeepMLP(4, 8, 1, 2, 5)
	st, _ := Capture(net, nil, 0, nil)
	st.Version = 99
	if err := Restore(st, net, nil); err == nil {
		t.Fatal("expected version error")
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
	st, err := Capture(netB, sgdB.Optimizer(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	netC := models.DeepMLP(6, 8, 2, 3, seed+1) // different init, will be overwritten
	sgdC := core.NewSGDTrainer(netC, cfg, 8)
	if err := Restore(st, netC, sgdC.Optimizer()); err != nil {
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
	st, err := CapturePipeline(netB, trB, map[string]string{"mit": "LWPwDSCD"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	st2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trC, netC := mk(seed + 100) // different init, overwritten by restore
	if err := RestorePipeline(st2, netC, trC); err != nil {
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

	pb2, pc := netB.Params(), netC.Params()
	for i := range pb2 {
		if !pb2[i].W.AllClose(pc[i].W, 0) {
			t.Fatalf("resumed PB trajectory deviates at %s", pb2[i].Name)
		}
	}
}

// TestCaptureDoesNotMutateOptimizer locks in that capturing a snapshot never
// allocates velocity buffers as a side effect (the old Capture called
// opt.Vel, which allocates and therefore mutated the optimizer).
func TestCaptureDoesNotMutateOptimizer(t *testing.T) {
	net := models.DeepMLP(4, 8, 2, 3, 9)
	opt := optim.NewMomentum(0.1, 0.9)
	st, err := Capture(net, opt, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Velocities) != 0 {
		t.Fatalf("untrained optimizer captured %d velocity buffers", len(st.Velocities))
	}
	for _, p := range net.Params() {
		if opt.VelIfTracked(p) != nil {
			t.Fatalf("Capture allocated a velocity buffer for %s", p.Name)
		}
	}
}

// TestVersion1StillRestores guards backwards compatibility with pre-stage
// snapshots.
func TestVersion1StillRestores(t *testing.T) {
	net := models.DeepMLP(4, 8, 1, 2, 10)
	st, _ := Capture(net, nil, 3, nil)
	st.Version = 1
	net2 := models.DeepMLP(4, 8, 1, 2, 11)
	if err := Restore(st, net2, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineCheckpointAcrossEngines exercises PipelineTrainer on the
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
	trB := core.NewParallelPBTrainer(netB, cfg)
	defer trB.Close()
	feed(trB, 0, train.Len()/2)
	st, err := CapturePipeline(netB, trB, nil)
	if err != nil {
		t.Fatal(err)
	}
	netC := models.DeepMLP(6, 8, 3, 3, seed+9)
	trC := core.NewParallelPBTrainer(netC, cfg)
	defer trC.Close()
	if err := RestorePipeline(st, netC, trC); err != nil {
		t.Fatal(err)
	}
	feed(trB, train.Len()/2, train.Len())
	feed(trC, train.Len()/2, train.Len())
	pb2, pc := netB.Params(), netC.Params()
	for i := range pb2 {
		if !pb2[i].W.AllClose(pc[i].W, 0) {
			t.Fatalf("lockstep resume deviates at %s", pb2[i].Name)
		}
	}

	// Async free engine → sequential trainer (cross-engine restore).
	netA := models.DeepMLP(6, 8, 3, 3, seed)
	trA := core.NewAsyncPBTrainer(netA, cfg)
	defer trA.Close()
	feed(trA, 0, train.Len()/2)
	stA, err := CapturePipeline(netA, trA, nil)
	if err != nil {
		t.Fatal(err)
	}
	netS := models.DeepMLP(6, 8, 3, 3, seed+17)
	trS := core.NewPBTrainer(netS, cfg)
	if err := RestorePipeline(stA, netS, trS); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trS.NumStages(); i++ {
		if trS.StageUpdates(i) != trA.StageUpdates(i) {
			t.Fatalf("stage %d updates %d, want %d", i, trS.StageUpdates(i), trA.StageUpdates(i))
		}
	}
	pa, ps := netA.Params(), netS.Params()
	for i := range pa {
		if !pa[i].W.AllClose(ps[i].W, 0) {
			t.Fatalf("async capture/restore lost weights at %s", pa[i].Name)
		}
	}
	feed(trS, train.Len()/2, train.Len()) // resumed trainer keeps training
}

// TestRestorePipelineIsAtomic: a snapshot rejected by validation must leave
// the trainer completely untouched (no half-restored weights).
func TestRestorePipelineIsAtomic(t *testing.T) {
	seed := int64(14)
	net := models.DeepMLP(6, 8, 2, 3, seed)
	cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
	tr := core.NewPBTrainer(net, cfg)
	train, _ := data.GaussianBlobs(6, 3, 16, 0, 1, 0.5, seed)
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		tr.Submit(context.Background(), x, y)
	}
	tr.Drain(context.Background())
	st, err := CapturePipeline(net, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a velocity buffer of the LAST stage so validation fails after
	// the weights and earlier stages would already have been written under a
	// mutate-as-you-validate implementation.
	last := len(st.Stages) - 1
	for name, v := range st.Stages[last].Velocities {
		st.Stages[last].Velocities[name] = v[:len(v)-1]
		break
	}
	net2 := models.DeepMLP(6, 8, 2, 3, seed+5)
	tr2 := core.NewPBTrainer(net2, cfg)
	before := net2.SnapshotWeights()
	if err := RestorePipeline(st, net2, tr2); err == nil {
		t.Fatal("expected corrupted snapshot to be rejected")
	}
	after := net2.Params()
	for i := range after {
		for j := range after[i].W.Data {
			if after[i].W.Data[j] != before[i][j] {
				t.Fatalf("rejected restore mutated %s", after[i].Name)
			}
		}
	}
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
func feedCluster(t *testing.T, cl *core.Cluster, ds *data.Dataset, lo, hi int) {
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

// TestClusterResumeMatchesUninterrupted is the v3 gold standard: a cluster
// trained one epoch, captured, restored into a fresh cluster and trained a
// second epoch must match — bit for bit — the same cluster kept in memory
// across both epochs: per-replica weights and velocities, the sync clock,
// and the shard cursor all resume. Both sync policies with state are
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
			st, err := CaptureCluster(clA, map[string]string{"engine": tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, st); err != nil {
				t.Fatal(err)
			}
			st2, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			feedCluster(t, clA, train, 0, train.Len())

			// Resumed arm: fresh cluster (different init, overwritten), restore,
			// second epoch.
			clB, netsB := mk(seed + 500)
			defer clB.Close()
			if err := RestoreCluster(st2, clB); err != nil {
				t.Fatal(err)
			}
			subB, syncsB, lastB := clB.ClusterCursor()
			if subB != subAt || syncsB != syncsAt || lastB != lastAt {
				t.Fatalf("restored cursor (%d,%d,%d), captured (%d,%d,%d)",
					subB, syncsB, lastB, subAt, syncsAt, lastAt)
			}
			feedCluster(t, clB, train, 0, train.Len())

			for r := 0; r < 2; r++ {
				pa, pb := netsA[r].Params(), netsB[r].Params()
				for i := range pa {
					if !pa[i].W.AllClose(pb[i].W, 0) {
						t.Fatalf("replica %d resumed trajectory deviates at %s", r, pa[i].Name)
					}
				}
			}
			sA, sB := clA.Stats(), clB.Stats()
			if sA.Syncs != sB.Syncs {
				t.Fatalf("sync clock after epoch 2: resumed %d vs uninterrupted %d", sB.Syncs, sA.Syncs)
			}
		})
	}
}

// TestClusterSnapshotRejects pins the v3 validation: wrong restore surface,
// replica-count and policy mismatches all fail loudly without mutating.
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
	st, err := CaptureCluster(cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A cluster snapshot cannot restore into a bare pipeline...
	net := models.DeepMLP(6, 8, 3, 3, 31)
	tr := core.NewPBTrainer(net, cfg)
	if err := RestorePipeline(st, net, tr); err == nil {
		t.Fatal("cluster snapshot restored into a single pipeline")
	}
	// ...nor a pipeline snapshot into a cluster.
	pst, err := CapturePipeline(net, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreCluster(pst, cl); err == nil {
		t.Fatal("pipeline snapshot restored into a cluster")
	}
	// Replica-count mismatch.
	cl3 := mk(3, "avg-every-4")
	defer cl3.Close()
	if err := RestoreCluster(st, cl3); err == nil {
		t.Fatal("2-replica snapshot restored into a 3-replica cluster")
	}
	// Policy mismatch.
	clPol := mk(2, "sync-grad")
	defer clPol.Close()
	if err := RestoreCluster(st, clPol); err == nil {
		t.Fatal("avg-every-4 snapshot restored under sync-grad")
	}
	// Interval mismatch within the same family.
	clInt := mk(2, "avg-every-9")
	defer clInt.Close()
	if err := RestoreCluster(st, clInt); err == nil {
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
	path := filepath.Join(t.TempDir(), "cluster.ckpt")
	if err := SaveCluster(path, clA, map[string]string{"scope": "test"}); err != nil {
		t.Fatal(err)
	}
	netsB := clusterNets(2, 99)
	clB, err := core.NewCluster(netsB, cfg, core.ClusterConfig{Replicas: 2, Engine: "seq", Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	st, err := LoadCluster(path, clB)
	if err != nil {
		t.Fatal(err)
	}
	if st.Meta["scope"] != "test" || st.Version != Version || st.Cluster == nil {
		t.Fatalf("loaded snapshot malformed: version %d meta %v", st.Version, st.Meta)
	}
	for r := 0; r < 2; r++ {
		pa, pb := clA.ReplicaNet(r).Params(), netsB[r].Params()
		for i := range pa {
			if !pa[i].W.AllClose(pb[i].W, 0) {
				t.Fatalf("replica %d weights differ after disk round-trip", r)
			}
		}
	}
}

// TestVersion2StillRestores guards compatibility with pre-cluster pipeline
// snapshots: a version-2 State (no Cluster field) restores exactly as
// before.
func TestVersion2StillRestores(t *testing.T) {
	seed := int64(51)
	net := models.DeepMLP(6, 8, 3, 3, seed)
	cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
	tr := core.NewPBTrainer(net, cfg)
	train, _ := data.GaussianBlobs(6, 3, 16, 0, 1, 0.5, seed)
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		tr.Submit(context.Background(), x, y)
	}
	tr.Drain(context.Background())
	st, err := CapturePipeline(net, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Version = 2 // what a pre-cluster build wrote
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	st2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	net2 := models.DeepMLP(6, 8, 3, 3, seed+1)
	tr2 := core.NewPBTrainer(net2, cfg)
	if err := RestorePipeline(st2, net2, tr2); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if !p.W.AllClose(net2.Params()[i].W, 0) {
			t.Fatalf("v2 restore deviates at %s", p.Name)
		}
	}
	if tr2.UpdateStep() != tr.UpdateStep() {
		t.Fatalf("v2 restore schedule position %d, want %d", tr2.UpdateStep(), tr.UpdateStep())
	}
}

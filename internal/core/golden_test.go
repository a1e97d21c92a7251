package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sched"
	syncpol "repro/internal/sync"
)

// This file pins the training trajectory of the deterministic engines across
// commits. The ≡ matrices prove that two engines agree, but when both sides
// run the same stage code they cannot show that the code itself did not move;
// these constants can. Each run crosses the points where state outside the
// stage loop changes: a mid-run drain, a checkpoint restore into the same
// engine, replica averaging, the sync-grad drain broadcast after an odd tail,
// and an LR schedule with decay.

// trajectoryWant holds the recorded hashes. A deliberate numerical change
// must re-record them (the failure message prints the new table).
var trajectoryWant = []trajGolden{
	{"mlp/None/seq", 0x51fc2caa516f5bb0},
	{"mlp/None/lockstep", 0x51fc2caa516f5bb0},
	{"mlp/LWPvDSCD/seq", 0xcaca2ede43a01efb},
	{"mlp/LWPvDSCD/lockstep", 0xcaca2ede43a01efb},
	{"mlp/LWPwDSCD/seq", 0x05e07b990716fc95},
	{"mlp/LWPwDSCD/lockstep", 0x05e07b990716fc95},
	{"mlp/LWP2D/seq", 0xe248561706da08af},
	{"mlp/LWP2D/lockstep", 0xe248561706da08af},
	{"mlp/SpecTrain/seq", 0x84db08c1ed650474},
	{"mlp/SpecTrain/lockstep", 0x84db08c1ed650474},
	{"mlp/WeightStash/seq", 0xe406bd555f313399},
	{"mlp/WeightStash/lockstep", 0xe406bd555f313399},
	{"mlp/GradShrink/seq", 0xda73cdc342434db9},
	{"mlp/GradShrink/lockstep", 0xda73cdc342434db9},
	{"resnet/None/seq", 0x1d26299a28b2731c},
	{"resnet/None/lockstep", 0x1d26299a28b2731c},
	{"resnet/LWPvDSCD/seq", 0x88b5df88ad3b05c1},
	{"resnet/LWPvDSCD/lockstep", 0x88b5df88ad3b05c1},
	{"resnet/LWPwDSCD/seq", 0x79f91873e4335fa6},
	{"resnet/LWPwDSCD/lockstep", 0x79f91873e4335fa6},
	{"resnet/LWP2D/seq", 0xb02f3c82ed841440},
	{"resnet/LWP2D/lockstep", 0xb02f3c82ed841440},
	{"resnet/SpecTrain/seq", 0x679060ad4ffd6cdd},
	{"resnet/SpecTrain/lockstep", 0x679060ad4ffd6cdd},
	{"resnet/WeightStash/seq", 0xc7d3a43a38dd5dcd},
	{"resnet/WeightStash/lockstep", 0xc7d3a43a38dd5dcd},
	{"resnet/GradShrink/seq", 0xfe94df8d3c129e30},
	{"resnet/GradShrink/lockstep", 0xfe94df8d3c129e30},
	{"cluster/None/avg-every-2", 0x412c2fc57bee15aa},
	{"cluster/None/sync-grad", 0x4cd702a14ee6fef1},
	{"cluster/LWPvDSCD/avg-every-2", 0xf655c03adad33cab},
	{"cluster/LWPvDSCD/sync-grad", 0xa7899c72d0bca287},
	{"cluster/LWPwDSCD/avg-every-2", 0xa16d529e6b6bcfe1},
	{"cluster/LWPwDSCD/sync-grad", 0xa9755503edc1904f},
	{"cluster/LWP2D/avg-every-2", 0x89fcdcd4ce1f317b},
	{"cluster/LWP2D/sync-grad", 0x6d521f08141715fb},
	{"cluster/SpecTrain/avg-every-2", 0xd6d3b89319c7a063},
	{"cluster/SpecTrain/sync-grad", 0x72fe3c25a3dfc175},
	{"cluster/WeightStash/avg-every-2", 0xc00a43379d449985},
	{"cluster/WeightStash/sync-grad", 0x87d1cc1963eb4e74},
	{"cluster/GradShrink/avg-every-2", 0x457daef27ff96f53},
	{"cluster/GradShrink/sync-grad", 0x99b5d753a7d0b658},
}

// trajGolden is one named FNV-64a hash over a run's final state and losses.
type trajGolden struct {
	name string
	hash uint64
}

// trajMitigations is the mitigation axis of the matrix.
var trajMitigations = []struct {
	name string
	mit  Mitigation
}{
	{"None", None},
	{"LWPvDSCD", LWPvDSCD},
	{"LWPwDSCD", LWPwDSCD},
	{"LWP2D", LWP2D},
	{"SpecTrain", SpecTrain},
	{"WeightStash", WeightStash},
	{"GradShrink", Mitigation{GradShrink: 0.9}},
}

// TestTrajectoryGoldenHashes recomputes every pinned trajectory and compares
// it bit for bit with the recorded hashes.
func TestTrajectoryGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are recorded on amd64; other architectures may fuse multiply-add into FMA")
	}
	got := trajectoryHashes(t)
	ok := len(got) == len(trajectoryWant)
	for i := 0; ok && i < len(got); i++ {
		if got[i] != trajectoryWant[i] {
			t.Errorf("%s: hash %#016x, recorded %#016x", got[i].name, got[i].hash, trajectoryWant[i].hash)
			ok = false
		}
	}
	if !ok {
		var b strings.Builder
		for _, g := range got {
			fmt.Fprintf(&b, "\t{%q, %#016x},\n", g.name, g.hash)
		}
		t.Errorf("trajectories differ from the recorded table; got:\n%s", b.String())
	}
}

// trajConfig is the shared configuration: weight decay on, and an LR
// schedule that decays twice inside every run.
func trajConfig(mit Mitigation) Config {
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cfg.WeightDecay = 5e-4
	cfg.Mitigation = mit
	cfg.Schedule = sched.MultiStep{Base: cfg.LR, Milestones: []int{12, 30}, Gamma: 0.5}
	return cfg
}

// trajectoryHashes runs the whole matrix in a fixed order.
func trajectoryHashes(t *testing.T) []trajGolden {
	t.Helper()
	blobs, _ := data.GaussianBlobs(6, 3, 36, 0, 1, 0.5, 120)
	imgs, _ := data.GenerateImages(data.CIFAR10Like(8, 24, 0, 7))
	modelsAxis := []struct {
		name  string
		ds    *data.Dataset
		build func() *nn.Network
	}{
		{"mlp", blobs, func() *nn.Network { return models.DeepMLP(6, 8, 3, 3, 120) }},
		{"resnet", imgs, func() *nn.Network { return models.ResNet(models.MiniResNet(8, 4, 8, 10, 3)) }},
	}
	var out []trajGolden
	for _, m := range modelsAxis {
		for _, mt := range trajMitigations {
			for _, kind := range []string{"seq", "lockstep"} {
				net := m.build()
				eng, err := NewEngine(kind, net, trajConfig(mt.mit))
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				hashLosses(h, runTrajectory(t, eng, net, m.ds))
				hashReplica(h, eng)
				eng.Close()
				out = append(out, trajGolden{m.name + "/" + mt.name + "/" + kind, h.Sum64()})
			}
		}
	}
	// R=2 clusters of an MLP over two epochs of an odd sample count: replica
	// averaging every 2 samples per replica, and sync-grad, whose second
	// epoch starts from the drain broadcast after an odd tail.
	odd, _ := data.GaussianBlobs(8, 4, 25, 0, 2.5, 1.0, 37)
	for _, mt := range trajMitigations {
		for _, pc := range []struct {
			name   string
			policy syncpol.Policy
		}{
			{"avg-every-2", syncpol.AvgEvery{K: 2}},
			{"sync-grad", syncpol.SyncGrad{}},
		} {
			nets := clusterNets(2, 61)
			cl, err := NewCluster(nets, trajConfig(mt.mit), ClusterConfig{Engine: "seq", Policy: pc.policy})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for e := 0; e < 2; e++ {
				hashLosses(h, feedRange(cl, odd, 0, odd.Len()))
			}
			for r := 0; r < cl.Replicas(); r++ {
				hashReplica(h, cl.ReplicaEngine(r))
			}
			cl.Close()
			out = append(out, trajGolden{"cluster/" + mt.name + "/" + pc.name, h.Sum64()})
		}
	}
	return out
}

// runTrajectory trains one engine over ds in thirds with a drain after each.
// It snapshots the engine after the second third, trains a detour of four
// samples, restores the snapshot into the same engine and only then trains
// the last third. It returns every released result.
func runTrajectory(t *testing.T, eng PipelineEngine, net *nn.Network, ds *data.Dataset) []*Result {
	t.Helper()
	n := ds.Len()
	rs := feedRange(eng, ds, 0, n/3)
	rs = append(rs, feedRange(eng, ds, n/3, 2*n/3)...)
	view := checkpoint.Pipeline{Net: net, Engine: eng}
	snap, err := checkpoint.Capture(view, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, feedRange(eng, ds, 0, 4)...)
	if err := checkpoint.Restore(snap, view); err != nil {
		t.Fatal(err)
	}
	return append(rs, feedRange(eng, ds, 2*n/3, n)...)
}

// feedRange submits samples [lo, hi) of ds and drains.
func feedRange(e Engine, ds *data.Dataset, lo, hi int) []*Result {
	idxs := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idxs = append(idxs, i)
	}
	return append(feedSlice(e, ds, idxs), drain(e)...)
}

// hashLosses writes every result's loss bits in release order.
func hashLosses(h hash.Hash64, rs []*Result) {
	for _, r := range rs {
		hashFloats(h, r.Loss)
	}
}

// hashReplica writes one pipeline's weights, then per stage its velocities
// and tracked previous weights (a length word first, so an untracked buffer
// hashes differently from an empty one).
func hashReplica(h hash.Hash64, e syncpol.Replica) {
	for s := 0; s < e.NumStages(); s++ {
		opt := e.StageOptimizer(s)
		for _, p := range e.StageParams(s) {
			hashFloats(h, p.W.Data...)
			v, prev := opt.VelIfTracked(p), opt.PrevIfTracked(p)
			hashFloats(h, float64(len(v)))
			hashFloats(h, v...)
			hashFloats(h, float64(len(prev)))
			hashFloats(h, prev...)
		}
	}
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

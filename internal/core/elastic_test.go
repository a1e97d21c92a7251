package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/models"
	syncpol "repro/internal/sync"
)

// feedSlice streams the given sample indices through an engine (no final
// drain) and returns the released results.
func feedSlice(e Engine, ds *data.Dataset, idxs []int) []*Result {
	shape := append([]int{1}, ds.Shape...)
	var out []*Result
	for _, idx := range idxs {
		x := e.InputBuffer(shape...)
		copy(x.Data, ds.Samples[idx])
		out = append(out, submit(e, x, ds.Labels[idx])...)
	}
	return out
}

// TestElasticRemoveContinuesAsFreshR1 is the elastic-downsize equivalence
// proof: an R=2 sync-grad cluster drained at a sync boundary and shrunk with
// RemoveReplica(1) must finish the epoch bit-identically to a fresh R=1
// cluster seeded from replica 0's standalone pipeline snapshot
// (checkpoint.ReplicaPipeline) at the same boundary. The drain broadcast
// aligned both replicas, so the survivor carries the cluster's full training
// state; the global cursor keeps counting, so both paths feed the identical
// tail sequence to one pipeline.
func TestElasticRemoveContinuesAsFreshR1(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 64, 0, 2.5, 1.0, 13)
	perm := rand.New(rand.NewSource(7)).Perm(train.Len())
	half := train.Len() / 2
	cfg := ScaledConfig(0.05, 0.9, 32, 1)

	// Path A: train to the boundary, drain, shrink, finish.
	netsA := clusterNets(2, 31)
	clA, err := NewCluster(netsA, cfg, ClusterConfig{Engine: "seq", Policy: syncpol.SyncGrad{}})
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	feedSlice(clA, train, perm[:half])
	drain(clA)
	if err := clA.RemoveReplica(1); err != nil {
		t.Fatal(err)
	}
	if got := clA.Replicas(); got != 1 {
		t.Fatalf("after RemoveReplica: %d replicas, want 1", got)
	}
	tailA := append(feedSlice(clA, train, perm[half:]), drain(clA)...)

	// Path B: identical run to the boundary, then capture replica 0 as a
	// standalone pipeline snapshot and seed a brand-new R=1 cluster from it.
	netsB := clusterNets(2, 31)
	clB, err := NewCluster(netsB, cfg, ClusterConfig{Engine: "seq", Policy: syncpol.SyncGrad{}})
	if err != nil {
		t.Fatal(err)
	}
	feedSlice(clB, train, perm[:half])
	drain(clB)
	st, err := checkpoint.CaptureCluster(clB, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := checkpoint.ReplicaPipeline(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	clB.Close()

	netsB1 := clusterNets(1, 31)
	clB1, err := NewCluster(netsB1, cfg, ClusterConfig{Engine: "seq", Policy: syncpol.SyncGrad{}})
	if err != nil {
		t.Fatal(err)
	}
	defer clB1.Close()
	if err := checkpoint.RestorePipeline(ps, netsB1[0], clB1.ReplicaEngine(0).(checkpoint.PipelineTrainer)); err != nil {
		t.Fatal(err)
	}
	tailB := append(feedSlice(clB1, train, perm[half:]), drain(clB1)...)

	weightsEqual(t, "survivor vs fresh R=1", netsA[0], netsB1[0])
	// Result IDs renumber across the two paths (fresh cluster restarts its
	// cursor); the loss stream must not.
	if len(tailA) != len(tailB) {
		t.Fatalf("tail results: %d vs %d", len(tailA), len(tailB))
	}
	for i := range tailA {
		if tailA[i].Loss != tailB[i].Loss || tailA[i].Correct != tailB[i].Correct {
			t.Fatalf("tail result %d differs: %+v vs %+v", i, tailA[i], tailB[i])
		}
	}
}

// TestElasticJoinDoesNotDisturbPeers pins the AlignTo-vs-Broadcast design
// point: a replica joining under a policy whose replicas legitimately diverge
// (none) must adopt the canonical replica's state without touching any peer.
func TestElasticJoinDoesNotDisturbPeers(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 48, 0, 2.5, 1.0, 17)
	perm := rand.New(rand.NewSource(9)).Perm(train.Len())
	cfg := ScaledConfig(0.05, 0.9, 32, 1)

	nets := clusterNets(2, 41)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Engine: "seq", Policy: syncpol.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	feedSlice(cl, train, perm[:24]) // replicas diverge on disjoint shards
	drain(cl)

	before := nets[1].SnapshotWeights()
	joiner := models.DeepMLP(8, 10, 4, 4, 99) // different init — must be overwritten
	if err := cl.AddReplica(joiner); err != nil {
		t.Fatal(err)
	}
	if got := cl.Replicas(); got != 3 {
		t.Fatalf("after AddReplica: %d replicas, want 3", got)
	}
	after := nets[1].SnapshotWeights()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("join disturbed peer replica 1: param %d[%d] changed", i, j)
			}
		}
	}
	weightsEqual(t, "joiner vs canonical", nets[0], joiner)

	// The joiner participates in the re-partitioned stream immediately.
	feedSlice(cl, train, perm[24:])
	drain(cl)
	if s := cl.Stats(); s.Completed != train.Len() {
		t.Fatalf("completed %d samples, want %d", s.Completed, train.Len())
	}
}

// TestElasticJoinSyncGradStaysAligned joins a replica into a running
// sync-grad cluster and checks the invariant the policy promises: after the
// next drain every replica — founder and joiner — is bit-identical.
func TestElasticJoinSyncGradStaysAligned(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 48, 0, 2.5, 1.0, 19)
	perm := rand.New(rand.NewSource(3)).Perm(train.Len())
	cfg := ScaledConfig(0.05, 0.9, 32, 1)

	nets := clusterNets(2, 43)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Engine: "seq", Policy: syncpol.SyncGrad{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	feedSlice(cl, train, perm[:24])
	drain(cl)

	joiner := models.DeepMLP(8, 10, 4, 4, 77)
	if err := cl.AddReplica(joiner); err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, "joiner aligned at join", nets[0], joiner)
	feedSlice(cl, train, perm[24:])
	drain(cl)
	weightsEqual(t, "replica 1 after drain", nets[0], nets[1])
	weightsEqual(t, "joiner after drain", nets[0], joiner)
}

// TestElasticMembershipGuards pins the failure modes: membership changes on a
// non-quiesced cluster, out-of-range slots, removing the last replica,
// joining a mismatched architecture, and operating on a closed cluster are
// all refused with errors (never panics, never partial mutation).
func TestElasticMembershipGuards(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 8, 0, 2.5, 1.0, 23)
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	nets := clusterNets(2, 51)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Engine: "seq", Policy: syncpol.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One submitted sample sits in the 4-stage pipeline: not quiesced.
	x := cl.InputBuffer(1, 8)
	copy(x.Data, train.Samples[0])
	submit(cl, x, train.Labels[0])
	if err := cl.RemoveReplica(0); err == nil {
		t.Fatal("RemoveReplica succeeded with samples in flight")
	}
	if err := cl.AddReplica(models.DeepMLP(8, 10, 4, 4, 1)); err == nil {
		t.Fatal("AddReplica succeeded with samples in flight")
	}
	drain(cl)

	if err := cl.RemoveReplica(2); err == nil {
		t.Fatal("RemoveReplica(2) succeeded on a 2-replica cluster")
	}
	if err := cl.RemoveReplica(-1); err == nil {
		t.Fatal("RemoveReplica(-1) succeeded")
	}
	if err := cl.AddReplica(models.DeepMLP(8, 10, 3, 4, 1)); err == nil {
		t.Fatal("AddReplica succeeded with a mismatched pipeline decomposition")
	}
	if err := cl.RemoveReplica(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveReplica(0); err == nil {
		t.Fatal("removed the last replica")
	}

	cl.Close()
	if err := cl.AddReplica(models.DeepMLP(8, 10, 4, 4, 1)); err == nil {
		t.Fatal("AddReplica succeeded on a closed cluster")
	}
	if err := cl.RemoveReplica(0); err == nil {
		t.Fatal("RemoveReplica succeeded on a closed cluster")
	}
}

// TestClusterCancelMidEpochNoLeak cancels the context between sync rounds of
// a live R=2 cluster — for every engine kind — then closes the cluster and
// checks that every replica's goroutines exit (run under -race in CI).
func TestClusterCancelMidEpochNoLeak(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 32, 0, 2.5, 1.0, 29)
	perm := rand.New(rand.NewSource(5)).Perm(train.Len())
	baseline := runtime.NumGoroutine()
	for _, engine := range []string{"seq", "lockstep", "async"} {
		pol := syncpol.Policy(syncpol.AvgEvery{K: 4})
		if engine == "seq" || engine == "lockstep" {
			pol = syncpol.SyncGrad{} // exercise the reducer teardown too
		}
		cfg := ScaledConfig(0.05, 0.9, 32, 2)
		nets := clusterNets(2, 61)
		cl, err := NewCluster(nets, cfg, ClusterConfig{Engine: engine, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		shape := append([]int{1}, train.Shape...)
		for i, idx := range perm {
			if i == len(perm)/2 {
				cancel() // between rounds: the cluster is mid-epoch, pipelines full
			}
			x := cl.InputBuffer(shape...)
			copy(x.Data, train.Samples[idx])
			if _, err := cl.Submit(ctx, x, train.Labels[idx]); err != nil {
				break
			}
		}
		if _, err := cl.Drain(ctx); err == nil {
			t.Fatalf("%s: Drain succeeded on a cancelled cluster", engine)
		}
		cl.Close()
		cancel()
		if !settlesTo(baseline) {
			t.Fatalf("%s: goroutines leaked after cancelled epoch: baseline %d, now %d",
				engine, baseline, runtime.NumGoroutine())
		}
	}
}

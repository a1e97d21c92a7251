package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	syncpol "repro/internal/sync"
)

// clusterNets builds R weight-identical replica networks (clone with shared
// init: independent *nn.Param instances, identical values).
func clusterNets(r int, seed int64) []*nn.Network {
	nets := make([]*nn.Network, r)
	nets[0] = models.DeepMLP(8, 10, 4, 4, seed)
	snap := nets[0].SnapshotWeights()
	for i := 1; i < r; i++ {
		nets[i] = models.DeepMLP(8, 10, 4, 4, seed)
		nets[i].RestoreWeights(snap)
	}
	return nets
}

// feedEpoch streams one epoch through an engine and returns the results in
// release order.
func feedEpoch(e Engine, ds *data.Dataset, perm []int, drainEach bool) []*Result {
	shape := append([]int{1}, ds.Shape...)
	var out []*Result
	for _, idx := range perm {
		x := e.InputBuffer(shape...)
		copy(x.Data, ds.Samples[idx])
		out = append(out, submit(e, x, ds.Labels[idx])...)
		if drainEach {
			out = append(out, drain(e)...)
		}
	}
	return append(out, drain(e)...)
}

// weightsEqual compares two networks bit for bit.
func weightsEqual(t *testing.T, label string, a, b *nn.Network) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: param count %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("%s: param %q[%d] differs: %v vs %v",
					label, pa[i].Name, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
}

// resultsEqual compares two result streams exactly (IDs, losses,
// correctness, order).
func resultsEqual(t *testing.T, label string, a, b []*Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Loss != b[i].Loss || a[i].Correct != b[i].Correct {
			t.Fatalf("%s: result %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestClusterR1MatchesEngine is the determinism anchor: a Cluster with one
// replica must be bit-identical to the bare underlying engine — same weight
// trajectory, same result stream — for every engine and policy. The
// deterministic engines stream a whole epoch; the free-running async engine
// is pinned by draining after every sample (which forces its one admissible
// schedule).
func TestClusterR1MatchesEngine(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 48, 0, 2.5, 1.0, 11)
	perm := rand.New(rand.NewSource(5)).Perm(train.Len())
	mits := map[string]Mitigation{"none": None, "lwpvd+scd": LWPvDSCD, "ws": WeightStash}
	policies := map[string]syncpol.Policy{
		"none":        syncpol.None{},
		"avg-every-2": syncpol.AvgEvery{K: 2},
		"sync-grad":   syncpol.SyncGrad{},
	}
	for _, engine := range []string{"seq", "lockstep", "async"} {
		for mitName, mit := range mits {
			for polName, pol := range policies {
				// Every engine × policy combination is valid at R=1: the
				// gradient-reduction harness only engages at R > 1.
				label := fmt.Sprintf("%s/%s/%s", engine, mitName, polName)
				t.Run(label, func(t *testing.T) {
					cfg := ScaledConfig(0.05, 0.9, 32, 1)
					cfg.Mitigation = mit
					drainEach := engine == "async" // pin the free-running schedule

					bareNet := clusterNets(1, 21)[0]
					bare, err := NewEngine(engine, bareNet, cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer bare.Close()
					bareRes := feedEpoch(bare, train, perm, drainEach)

					nets := clusterNets(1, 21)
					cl, err := NewCluster(nets, cfg, ClusterConfig{Replicas: 1, Engine: engine, Policy: pol})
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					clRes := feedEpoch(cl, train, perm, drainEach)

					weightsEqual(t, label, bareNet, nets[0])
					resultsEqual(t, label, bareRes, clRes)
					if s := cl.Stats(); s.Syncs != 0 {
						t.Fatalf("%s: R=1 cluster performed %d syncs, want 0", label, s.Syncs)
					}
				})
			}
		}
	}
}

// runSyncGrad trains one epoch of a sync-grad cluster and returns the
// replica networks and the released results.
func runSyncGrad(t *testing.T, engine string, r int, train *data.Dataset, perm []int, mit Mitigation) ([]*nn.Network, []*Result) {
	t.Helper()
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cfg.Mitigation = mit
	nets := clusterNets(r, 33)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Replicas: r, Engine: engine, Policy: syncpol.SyncGrad{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	return nets, feedEpoch(cl, train, perm, false)
}

// TestSyncGradDeterministic pins the sync-grad trajectory: R=2 over a shared
// permutation is identical run to run (the reduction sums in replica-index
// order regardless of goroutine scheduling), identical between the seq and
// lockstep inner engines, and leaves every replica bit-identical after the
// drain broadcast. The sample count is odd on purpose, exercising the
// partial final round.
func TestSyncGradDeterministic(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 45, 0, 2.5, 1.0, 13)
	perm := rand.New(rand.NewSource(9)).Perm(train.Len())

	netsA, resA := runSyncGrad(t, "seq", 2, train, perm, LWPvDSCD)
	netsB, resB := runSyncGrad(t, "seq", 2, train, perm, LWPvDSCD)
	weightsEqual(t, "run-to-run", netsA[0], netsB[0])
	resultsEqual(t, "run-to-run", resA, resB)

	netsC, resC := runSyncGrad(t, "lockstep", 2, train, perm, LWPvDSCD)
	weightsEqual(t, "seq-vs-lockstep", netsA[0], netsC[0])
	resultsEqual(t, "seq-vs-lockstep", resA, resC)

	// Drain broadcast: replicas end bit-identical even with the odd tail.
	weightsEqual(t, "replica0-vs-replica1", netsA[0], netsA[1])

	// Every submitted sample came back exactly once, in global order.
	if len(resA) != train.Len() {
		t.Fatalf("released %d results, want %d", len(resA), train.Len())
	}
	for i, r := range resA {
		if r.ID != i {
			t.Fatalf("result %d has ID %d, want %d (global-order release)", i, r.ID, i)
		}
	}
}

// TestSyncGradR4 checks sync-grad at R=4: every submitted sample comes back
// exactly once and all replicas agree bit for bit after the drain broadcast.
func TestSyncGradR4(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 30, 0, 2.5, 1.0, 17)
	perm := rand.New(rand.NewSource(3)).Perm(train.Len())
	nets, res := runSyncGrad(t, "seq", 4, train, perm, None)
	if len(res) != train.Len() {
		t.Fatalf("released %d results, want %d", len(res), train.Len())
	}
	for i := 1; i < 4; i++ {
		weightsEqual(t, fmt.Sprintf("replica0-vs-replica%d", i), nets[0], nets[i])
	}
}

// TestSyncGradSecondEpochAfterOddTail regresses the post-broadcast
// realignment: with an odd sample count at R=2 the drain broadcast aligns
// replica 1's update counters to replica 0's (which owned the tail sample),
// and the reduction barrier must follow — a second epoch used to diverge
// from (or deadlock against) the stale per-replica counts. Two epochs must
// stream cleanly, deterministically, and leave the replicas identical.
func TestSyncGradSecondEpochAfterOddTail(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 25, 0, 2.5, 1.0, 37)
	run := func() ([]*nn.Network, []*Result) {
		cfg := ScaledConfig(0.05, 0.9, 32, 1)
		nets := clusterNets(2, 81)
		cl, err := NewCluster(nets, cfg, ClusterConfig{Replicas: 2, Engine: "seq", Policy: syncpol.SyncGrad{}})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		rng := rand.New(rand.NewSource(14)) // shared permutation stream
		var all []*Result
		for epoch := 0; epoch < 2; epoch++ {
			all = append(all, feedEpoch(cl, train, train.Perm(rng), false)...)
		}
		return nets, all
	}
	netsA, resA := run()
	netsB, resB := run()
	weightsEqual(t, "two-epoch run-to-run", netsA[0], netsB[0])
	resultsEqual(t, "two-epoch run-to-run", resA, resB)
	weightsEqual(t, "replica0-vs-replica1", netsA[0], netsA[1])
	if len(resA) != 2*train.Len() {
		t.Fatalf("released %d results over two epochs, want %d", len(resA), 2*train.Len())
	}
}

// TestClusterShardsMatchDataShard proves the cluster's round-robin routing
// is exactly the data.Shard striding: replica r receives the samples of
// Shard(perm, r, R), in order.
func TestClusterShardsMatchDataShard(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 26, 0, 2.5, 1.0, 19)
	perm := rand.New(rand.NewSource(7)).Perm(train.Len())
	const r = 3
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cl, err := NewCluster(clusterNets(r, 41), cfg, ClusterConfig{Replicas: r, Engine: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := feedEpoch(cl, train, perm, false)
	for i := 0; i < r; i++ {
		shard := data.Shard(perm, i, r)
		if got := cl.engines[i].Stats().Submitted; got != len(shard) {
			t.Fatalf("replica %d saw %d samples, Shard gives %d", i, got, len(shard))
		}
	}
	if len(res) != train.Len() {
		t.Fatalf("released %d results, want %d", len(res), train.Len())
	}
	for i, re := range res {
		if re.ID != i {
			t.Fatalf("result %d has ID %d, want global order", i, re.ID)
		}
	}
}

// TestClusterAvgEveryCadence pins the avg-every-k sync clock: a sync fires
// after every k samples per replica, plus one final drain sync when samples
// flowed since the last one — and the post-drain replicas agree exactly.
func TestClusterAvgEveryCadence(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 26, 0, 2.5, 1.0, 23)
	perm := rand.New(rand.NewSource(8)).Perm(train.Len())
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	nets := clusterNets(2, 51)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Replicas: 2, Engine: "async", Policy: syncpol.AvgEvery{K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := feedEpoch(cl, train, perm, false)
	// 26 samples, R=2, k=5: periodic syncs at 10 and 20 submissions, then a
	// drain sync for the trailing 6.
	if s := cl.Stats(); s.Syncs != 3 {
		t.Fatalf("sync clock %d, want 3", s.Syncs)
	}
	if len(res) != train.Len() {
		t.Fatalf("released %d results, want %d", len(res), train.Len())
	}
	weightsEqual(t, "post-drain consensus", nets[0], nets[1])

	// A second Drain without new samples must not sync again.
	drain(cl)
	if s := cl.Stats(); s.Syncs != 3 {
		t.Fatalf("idle drain moved the sync clock to %d", s.Syncs)
	}
}

// TestClusterPolicyNoneIndependent checks the ensemble setting: under
// "none" the replicas train independently and (almost surely) diverge.
func TestClusterPolicyNoneIndependent(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 24, 0, 2.5, 1.0, 29)
	perm := rand.New(rand.NewSource(2)).Perm(train.Len())
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	nets := clusterNets(2, 61)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Replicas: 2, Engine: "seq"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	feedEpoch(cl, train, perm, false)
	if s := cl.Stats(); s.Syncs != 0 || s.Replicas != 2 {
		t.Fatalf("stats %+v, want 0 syncs over 2 replicas", s)
	}
	same := true
	pa, pb := nets[0].Params(), nets[1].Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("independent replicas on disjoint shards ended bit-identical — policy none is not independent")
	}
}

// TestClusterRejectsBadConfigs pins the construction-time validation.
func TestClusterRejectsBadConfigs(t *testing.T) {
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	if _, err := NewCluster(nil, cfg, ClusterConfig{Replicas: 0}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewCluster(clusterNets(2, 1), cfg, ClusterConfig{Replicas: 3}); err == nil {
		t.Fatal("replica count / network count mismatch accepted")
	}
	// Mismatched decompositions.
	bad := []*nn.Network{models.DeepMLP(8, 10, 4, 4, 1), models.DeepMLP(8, 10, 3, 4, 1)}
	if _, err := NewCluster(bad, cfg, ClusterConfig{}); err == nil {
		t.Fatal("mismatched stage counts accepted")
	}
	// Shared parameters: replicas must own their weights.
	n := models.DeepMLP(8, 10, 4, 4, 1)
	if _, err := NewCluster([]*nn.Network{n, n}, cfg, ClusterConfig{}); err == nil {
		t.Fatal("aliased replica networks accepted")
	}
	// sync-grad needs a stepped engine at R > 1 (R=1 is a transparent
	// wrapper, so any engine is fine there).
	if _, err := NewCluster(clusterNets(2, 1), cfg, ClusterConfig{Engine: "async", Policy: syncpol.SyncGrad{}}); err == nil {
		t.Fatal("sync-grad over the free-running engine accepted at R=2")
	}
	if cl, err := NewCluster(clusterNets(1, 1), cfg, ClusterConfig{Engine: "async", Policy: syncpol.SyncGrad{}}); err != nil {
		t.Fatalf("sync-grad at R=1 must be accepted for any engine: %v", err)
	} else {
		cl.Close()
	}
	// Unknown inner engine.
	if _, err := NewCluster(clusterNets(2, 1), cfg, ClusterConfig{Engine: "nope"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestReplicaShares pins the cluster-level worker-budget split.
func TestReplicaShares(t *testing.T) {
	for _, tc := range []struct {
		total, r int
		want     []int
	}{
		{0, 3, []int{0, 0, 0}},
		{2, 4, []int{1, 1, 0, 0}},
		{4, 2, []int{2, 2}},
		{7, 3, []int{3, 2, 2}},
	} {
		got := replicaShares(tc.total, tc.r)
		if len(got) != len(tc.want) {
			t.Fatalf("replicaShares(%d,%d) = %v", tc.total, tc.r, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("replicaShares(%d,%d) = %v, want %v", tc.total, tc.r, got, tc.want)
			}
		}
	}
}

// TestClusterAsyncConcurrent exercises the R×async configuration under the
// race detector: replicated free-running pipelines with periodic averaging,
// all samples accounted for. CI runs this at GOMAXPROCS=4.
func TestClusterAsyncConcurrent(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 60, 0, 2.5, 1.0, 31)
	perm := rand.New(rand.NewSource(6)).Perm(train.Len())
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cfg.Workers = 4
	nets := clusterNets(2, 71)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Replicas: 2, Engine: "async", Policy: syncpol.AvgEvery{K: 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for epoch := 0; epoch < 2; epoch++ {
		res := feedEpoch(cl, train, perm, false)
		if len(res) != train.Len() {
			t.Fatalf("epoch %d released %d results, want %d", epoch, len(res), train.Len())
		}
	}
	s := cl.Stats()
	if s.Completed != 2*train.Len() || s.Submitted != 2*train.Len() {
		t.Fatalf("stats %+v, want %d completed", s, 2*train.Len())
	}
	if s.MaxObservedDelay > 2*(cl.NumStages()-1) {
		t.Fatalf("staleness %d exceeds bound %d", s.MaxObservedDelay, 2*(cl.NumStages()-1))
	}
}

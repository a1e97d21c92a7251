package core

import (
	"math/rand"
	stdsync "sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	syncpol "repro/internal/sync"
)

// TestStageDelayDoesNotPerturbTraining pins the fault-injection contract: an
// injected stall is pure wall-clock — the weight trajectory and result stream
// with a StageDelay hook installed are bit-identical to a run without one,
// for every engine and for a 2-replica sync-grad cluster (which also carries
// an AdmitBound its stepped engines ignore). The free-running async engine
// is pinned by draining after every sample (which forces its one admissible
// schedule).
func TestStageDelayDoesNotPerturbTraining(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 24, 0, 2.5, 1.0, 11)
	perm := rand.New(rand.NewSource(5)).Perm(train.Len())
	cases := []struct {
		name, engine string
		replicas     int // 0 runs the bare engine, > 0 a sync-grad cluster
		admitBound   int
	}{
		{name: "seq", engine: "seq"},
		{name: "lockstep", engine: "lockstep"},
		{name: "async", engine: "async"},
		{name: "cluster-sync-grad", engine: "seq", replicas: 2, admitBound: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			drainEach := c.engine == "async"
			cfg := ScaledConfig(0.05, 0.9, 32, max(c.replicas, 1))
			build := func(cfg Config) (Engine, []*nn.Network) {
				nets := clusterNets(max(c.replicas, 1), 21)
				var e Engine
				var err error
				if c.replicas == 0 {
					e, err = NewEngine(c.engine, nets[0], cfg)
				} else {
					e, err = NewCluster(nets, cfg, ClusterConfig{Engine: c.engine, Policy: syncpol.SyncGrad{}})
				}
				if err != nil {
					t.Fatal(err)
				}
				return e, nets
			}
			plain, plainNets := build(cfg)
			defer plain.Close()
			plainRes := feedEpoch(plain, train, perm, drainEach)

			hcfg := cfg
			hcfg.AdmitBound = c.admitBound
			var mu stdsync.Mutex
			points := 0
			hcfg.StageDelay = func(p ChaosPoint) time.Duration {
				mu.Lock()
				points++
				mu.Unlock()
				if (p.Replica == -1) != (c.replicas == 0) {
					t.Errorf("replica %d reported with %d replicas", p.Replica, c.replicas)
				}
				if p.Stage == 1 && p.Backward && p.Update%5 == 0 {
					return 100 * time.Microsecond
				}
				return 0
			}
			hooked, hookNets := build(hcfg)
			defer hooked.Close()
			hookedRes := feedEpoch(hooked, train, perm, drainEach)

			for i := range plainNets {
				weightsEqual(t, c.name, plainNets[i], hookNets[i])
			}
			resultsEqual(t, c.name, plainRes, hookedRes)
			if points == 0 {
				t.Fatal("StageDelay hook never consulted")
			}
		})
	}
}

// TestAdmitBound pins the bounded-staleness admission gate of the
// free-running async engine: with AdmitBound=b the in-flight count never
// exceeds b, deferred admissions are counted, and every sample still
// completes.
func TestAdmitBound(t *testing.T) {
	const bound = 3
	train, _ := data.GaussianBlobs(8, 4, 32, 0, 2.5, 1.0, 13)
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cfg.AdmitBound = bound
	net := models.DeepMLP(8, 10, 4, 4, 31)
	e := NewAsyncPBTrainer(net, cfg)
	defer e.Close()

	shape := append([]int{1}, train.Shape...)
	completed := 0
	for i := 0; i < train.Len(); i++ {
		x := e.InputBuffer(shape...)
		copy(x.Data, train.Samples[i])
		completed += len(submit(e, x, train.Labels[i]))
		if got := e.Outstanding(); got > bound {
			t.Fatalf("after submit %d: %d samples in flight, bound %d", i, got, bound)
		}
	}
	completed += len(drain(e))
	if completed != train.Len() {
		t.Fatalf("completed %d samples, want %d", completed, train.Len())
	}
	s := e.Stats()
	if s.AdmitDeferred == 0 {
		t.Fatalf("pipeline deeper than the bound never deferred an admission: %+v", s)
	}
}

// TestClusterChaosPointIdentity checks that a cluster rewrites
// ChaosPoint.Replica with each replica's join-order identity — and that the
// identity is stable across removals: after removing slot 0 and joining a new
// replica, the hook sees identities {1, 2}, never a reused 0.
func TestClusterChaosPointIdentity(t *testing.T) {
	train, _ := data.GaussianBlobs(8, 4, 24, 0, 2.5, 1.0, 19)
	perm := rand.New(rand.NewSource(7)).Perm(train.Len())
	cfg := ScaledConfig(0.05, 0.9, 32, 2)
	var mu stdsync.Mutex
	seen := map[int]bool{}
	cfg.StageDelay = func(p ChaosPoint) time.Duration {
		mu.Lock()
		seen[p.Replica] = true
		mu.Unlock()
		return 0
	}
	nets := clusterNets(2, 71)
	cl, err := NewCluster(nets, cfg, ClusterConfig{Engine: "seq", Policy: syncpol.None{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	feedSlice(cl, train, perm[:12])
	drain(cl)
	mu.Lock()
	if !seen[0] || !seen[1] {
		mu.Unlock()
		t.Fatalf("founder identities not observed: %v", seen)
	}
	seen = map[int]bool{}
	mu.Unlock()

	if err := cl.RemoveReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddReplica(models.DeepMLP(8, 10, 4, 4, 88)); err != nil {
		t.Fatal(err)
	}
	feedSlice(cl, train, perm[12:])
	drain(cl)
	mu.Lock()
	defer mu.Unlock()
	if seen[0] {
		t.Fatal("identity 0 reused after its replica was removed")
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("post-change identities {1,2} not observed: %v", seen)
	}
}

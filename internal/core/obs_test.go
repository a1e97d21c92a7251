package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	syncpol "repro/internal/sync"
)

// TestObsDoesNotPerturbTraining is the bus's bit-exactness contract: a run
// with the bus enabled and a live subscriber produces exactly the same
// weights as a run without it, engine by engine. The free-running async
// engine is pinned by draining after every sample (which forces its one
// admissible schedule).
func TestObsDoesNotPerturbTraining(t *testing.T) {
	for _, engine := range []string{"seq", "lockstep", "async"} {
		t.Run(engine, func(t *testing.T) {
			seed := int64(77)
			netPlain, train, _ := trainSetup(3, seed)
			netObs, _, _ := trainSetup(3, seed)
			cfg := Config{LR: 0.05, Momentum: 0.9}

			plain, err := NewEngine(engine, netPlain, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()

			bus := obs.NewBus()
			defer bus.Close()
			sub := bus.Subscribe(64) // deliberately shallow: drops must not matter
			defer sub.Close()
			ocfg := cfg
			ocfg.Obs = bus
			observed, err := NewEngine(engine, netObs, ocfg)
			if err != nil {
				t.Fatal(err)
			}
			defer observed.Close()

			for _, e := range []Engine{plain, observed} {
				shape := append([]int{1}, train.Shape...)
				for i := 0; i < train.Len(); i++ {
					x := e.InputBuffer(shape...)
					copy(x.Data, train.Samples[i])
					submit(e, x, train.Labels[i])
					if engine == "async" {
						drain(e)
					}
				}
				drain(e)
			}

			p1, p2 := netPlain.Params(), netObs.Params()
			for i := range p1 {
				if !p1[i].W.AllClose(p2[i].W, 0) {
					t.Fatalf("engine %s: param %s differs with the bus enabled", engine, p1[i].Name)
				}
			}
		})
	}
}

// TestAggregatorMatchesEngineStats pins "Stats() is one subscriber among
// many": after a drain, the bus aggregator has folded the same completion
// count and utilization the engine's Stats() reports.
func TestAggregatorMatchesEngineStats(t *testing.T) {
	for _, engine := range []string{"seq", "lockstep", "async"} {
		t.Run(engine, func(t *testing.T) {
			net, train, _ := trainSetup(3, 101)
			bus := obs.NewBus()
			defer bus.Close()
			agg := obs.NewAggregator(bus)
			defer agg.Close()
			e, err := NewEngine(engine, net, Config{LR: 0.05, Momentum: 0.9, Obs: bus})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			shape := append([]int{1}, train.Shape...)
			for i := 0; i < train.Len(); i++ {
				x := e.InputBuffer(shape...)
				copy(x.Data, train.Samples[i])
				submit(e, x, train.Labels[i])
			}
			drain(e)

			stats := e.Stats()
			// The pump delivers asynchronously; wait for the drain summary.
			deadline := time.Now().Add(5 * time.Second)
			var snap obs.Snapshot
			for {
				snap = agg.Snapshot()
				if snap.HasEngineStats || time.Now().After(deadline) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !snap.HasEngineStats {
				t.Fatal("no KindEngineStats drain summary reached the aggregator")
			}
			if snap.Completed != int64(stats.Completed) {
				t.Fatalf("aggregator completed = %d, Stats().Completed = %d", snap.Completed, stats.Completed)
			}
			if snap.EngineUtilization != stats.Utilization {
				t.Fatalf("aggregator utilization = %v, Stats().Utilization = %v", snap.EngineUtilization, stats.Utilization)
			}
			if len(snap.StalenessHist) == 0 {
				t.Fatal("no staleness events reached the aggregator")
			}
			// The histogram's largest delay is the engines' observed maximum.
			maxDelay := snap.StalenessHist[len(snap.StalenessHist)-1].Delay
			if maxDelay != int64(stats.MaxObservedDelay) {
				t.Fatalf("staleness hist max = %d, Stats().MaxObservedDelay = %d", maxDelay, stats.MaxObservedDelay)
			}
		})
	}
}

// TestClusterObsEmitsSyncClock verifies the cluster emits its sync-policy
// clock and drain summary at the driver level.
func TestClusterObsEmitsSyncClock(t *testing.T) {
	nets := clusterNets(2, 55)
	bus := obs.NewBus()
	defer bus.Close()
	agg := obs.NewAggregator(bus)
	defer agg.Close()
	c, err := NewCluster(nets, Config{LR: 0.05, Momentum: 0.9, Obs: bus},
		ClusterConfig{Engine: "seq", Policy: syncpol.AvgEvery{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, train, _ := trainSetup(2, 55)
	shape := append([]int{1}, train.Shape...)
	for i := 0; i < train.Len(); i++ {
		x := c.InputBuffer(shape...)
		copy(x.Data, train.Samples[i])
		submit(c, x, train.Labels[i])
	}
	drain(c)
	stats := c.Stats()
	if stats.Syncs == 0 {
		t.Fatal("test harness: no syncs ran")
	}
	deadline := time.Now().Add(5 * time.Second)
	var snap obs.Snapshot
	for {
		snap = agg.Snapshot()
		if snap.SyncClock == int64(stats.Syncs) && snap.HasEngineStats {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregator sync clock = %d (engine stats %v), want %d", snap.SyncClock, snap.HasEngineStats, stats.Syncs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.Completed != int64(stats.Completed) {
		t.Fatalf("aggregator completed = %d, cluster Stats().Completed = %d", snap.Completed, stats.Completed)
	}
}

package core

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

func TestLockstepMatchesSequential(t *testing.T) {
	// The goroutine-per-stage engine must produce a bit-identical weight
	// trajectory to the sequential engine: the lockstep barrier makes the
	// schedules equal and stage computations are worker-local.
	for _, mit := range []Mitigation{None, SCD, LWPvDSCD, WeightStash, SpecTrain} {
		seed := int64(80)
		train, _ := data.GaussianBlobs(6, 3, 60, 0, 1, 0.5, seed)
		netSeq := models.DeepMLP(6, 8, 3, 3, seed)
		netPar := models.DeepMLP(6, 8, 3, 3, seed)
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = mit

		seq := NewPBTrainer(netSeq, cfg)
		par := newLockstepT(t, netPar, cfg)
		defer par.Close()

		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			x2 := x.Clone()
			seq.Push(x, y)
			par.Push(x2, y)
			rs := seq.Step()
			rp := par.Step()
			if (rs == nil) != (rp == nil) {
				t.Fatalf("%s: completion mismatch at sample %d", mit.Name(), i)
			}
			if rs != nil && (rs.Loss != rp.Loss || rs.Correct != rp.Correct) {
				t.Fatalf("%s: result mismatch at sample %d: %v vs %v", mit.Name(), i, rs, rp)
			}
		}
		drain(seq)
		drain(par)

		ps, pp := netSeq.Params(), netPar.Params()
		for i := range ps {
			if !ps[i].W.AllClose(pp[i].W, 0) {
				t.Fatalf("%s: parallel engine deviates at %s", mit.Name(), ps[i].Name)
			}
		}
	}
}

func TestLockstepObservedDelays(t *testing.T) {
	seed := int64(81)
	train, _ := data.GaussianBlobs(6, 3, 60, 0, 1, 0.5, seed)
	net := models.DeepMLP(6, 8, 4, 3, seed)
	par := newLockstepT(t, net, Config{LR: 0.001, Momentum: 0.5})
	defer par.Close()
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		par.Push(x, y)
		par.Step()
	}
	drain(par)
	want := par.Delays()
	got := par.ObservedDelays()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d observed %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLockstepCloseIdempotent(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	par := newLockstepT(t, net, Config{LR: 0.01, Momentum: 0})
	par.Close()
	par.Close() // second close must be a no-op
}

func TestLockstepStepAfterClosePanics(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	par := newLockstepT(t, net, Config{LR: 0.01, Momentum: 0})
	par.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Step after Close")
		}
	}()
	par.Step()
}

// TestLockstepNoGoroutineLeak closes engines (idle and mid-flight) and
// checks the worker goroutines are all retired.
func TestLockstepNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 2; round++ {
		net := models.DeepMLP(6, 8, 4, 3, 1)
		par := newLockstepT(t, net, Config{LR: 0.01, Momentum: 0.5})
		train, _ := data.GaussianBlobs(6, 3, 4, 0, 1, 0.5, 1)
		for i := 0; i < train.Len(); i++ {
			x, y := train.Sample(i)
			par.Push(x, y)
			par.Step() // leave the pipeline partially filled
		}
		par.Close()
	}
	if !settlesTo(baseline) {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
	}
}

// TestLockstepDrainPartial drains a pipeline holding fewer samples than its
// depth and expects every one back.
func TestLockstepDrainPartial(t *testing.T) {
	net := models.DeepMLP(6, 8, 6, 3, 1) // deeper than the 3 samples fed
	par := newLockstepT(t, net, Config{LR: 0.01, Momentum: 0.5})
	defer par.Close()
	train, _ := data.GaussianBlobs(6, 3, 3, 0, 1, 0.5, 1)
	got := 0
	for i := 0; i < train.Len(); i++ {
		x, y := train.Sample(i)
		got += len(submit(par, x, y))
	}
	got += len(drain(par))
	if got != train.Len() {
		t.Fatalf("partial drain returned %d of %d results", got, train.Len())
	}
	if par.Outstanding() != 0 {
		t.Fatalf("outstanding %d after drain", par.Outstanding())
	}
}

func TestLockstepDrainEmpty(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	par := newLockstepT(t, net, Config{LR: 0.01, Momentum: 0})
	defer par.Close()
	if rs := drain(par); len(rs) != 0 {
		t.Fatal("drain of empty pipeline returned results")
	}
	if par.Outstanding() != 0 {
		t.Fatal("outstanding nonzero on fresh trainer")
	}
}

// newLockstepT builds the lockstep engine through the registry and returns
// it as the *PBTrainer it is, for the Push/Step drive surface.
func newLockstepT(t *testing.T, net *nn.Network, cfg Config) *PBTrainer {
	t.Helper()
	e, err := NewEngine("lockstep", net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e.(*PBTrainer)
}

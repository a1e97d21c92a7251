package delaysim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
)

func blobTask(seed int64) (*data.Dataset, *data.Dataset) {
	return data.GaussianBlobs(8, 4, 96, 48, 3, 0.8, seed)
}

func TestZeroDelayEqualsSGD(t *testing.T) {
	// With D=0 the simulator must reproduce plain mini-batch SGDM exactly,
	// in both consistency modes.
	seed := int64(50)
	train, _ := blobTask(seed)
	for _, consistent := range []bool{false, true} {
		netA := models.DeepMLP(8, 10, 2, 4, seed)
		netB := models.DeepMLP(8, 10, 2, 4, seed)
		cfg := Config{Delay: 0, Consistent: consistent, LR: 0.05, Momentum: 0.9, BatchSize: 8}
		sim := New(netA, cfg)
		sgd := core.NewSGDTrainer(netB, core.Config{LR: 0.05, Momentum: 0.9}, 8)
		sim.TrainEpoch(train, nil, nil, nil)
		sim.Drain()
		sgd.TrainEpoch(train, nil, nil, nil)
		pa, pb := netA.Params(), netB.Params()
		for i := range pa {
			if !pa[i].W.AllClose(pb[i].W, 1e-12) {
				t.Fatalf("consistent=%v: D=0 deviates from SGD at %s", consistent, pa[i].Name)
			}
		}
	}
}

func TestDelayQueueSemantics(t *testing.T) {
	seed := int64(51)
	train, _ := blobTask(seed)
	net := models.DeepMLP(8, 10, 2, 4, seed)
	sim := New(net, Config{Delay: 4, LR: 0.01, Momentum: 0.9, BatchSize: 8})
	sim.TrainEpoch(train, nil, nil, nil)
	// 96/8 = 12 forwards; 4 still queued.
	if sim.QueueLen() != 4 {
		t.Fatalf("queue length %d, want 4", sim.QueueLen())
	}
	if sim.Updates != 8 {
		t.Fatalf("updates %d, want 8", sim.Updates)
	}
	sim.Drain()
	if sim.QueueLen() != 0 || sim.Updates != 12 {
		t.Fatalf("after drain: queue %d updates %d", sim.QueueLen(), sim.Updates)
	}
}

func TestConsistencyModesDiffer(t *testing.T) {
	seed := int64(52)
	train, _ := blobTask(seed)
	run := func(consistent bool) []float64 {
		net := models.DeepMLP(8, 10, 2, 4, seed)
		sim := New(net, Config{Delay: 4, Consistent: consistent, LR: 0.2, Momentum: 0.9, BatchSize: 8})
		for e := 0; e < 2; e++ {
			sim.TrainEpoch(train, nil, nil, nil)
		}
		return net.Params()[0].W.Data
	}
	a, b := run(true), run(false)
	same := true
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consistent and inconsistent modes produced identical trajectories at D=4")
	}
}

func TestDelayDegradesTraining(t *testing.T) {
	// The central Fig. 10 phenomenon: with hyperparameters scaled for small
	// batches (high momentum), delayed gradients hurt the final loss.
	seed := int64(53)
	train, test := blobTask(seed)
	finalLoss := func(d int) float64 {
		net := models.DeepMLP(8, 10, 2, 4, seed)
		eta, m := optim.Scale(0.4, 0.9, 32, 8)
		sim := New(net, Config{Delay: d, Consistent: true, LR: eta, Momentum: m, BatchSize: 8})
		for e := 0; e < 6; e++ {
			sim.TrainEpoch(train, nil, nil, nil)
		}
		sim.Drain()
		xs, ys := test.Batches(16)
		loss, _ := net.Evaluate(xs, ys)
		return loss
	}
	l0 := finalLoss(0)
	l8 := finalLoss(8)
	if !(l8 > l0) {
		t.Errorf("delay should degrade: loss(D=0)=%v loss(D=8)=%v", l0, l8)
	}
}

func TestSpikeCompensationHelpsUnderDelay(t *testing.T) {
	// Fig. 14 phenomenon: at high momentum and significant delay, SC
	// improves over the unmitigated run.
	seed := int64(54)
	train, test := blobTask(seed)
	finalLoss := func(sc bool) float64 {
		net := models.DeepMLP(8, 10, 2, 4, seed)
		eta, m := optim.Scale(0.4, 0.9, 32, 8)
		sim := New(net, Config{Delay: 8, Consistent: true, LR: eta, Momentum: m, BatchSize: 8, SC: sc})
		for e := 0; e < 6; e++ {
			sim.TrainEpoch(train, nil, nil, nil)
		}
		sim.Drain()
		xs, ys := test.Batches(16)
		loss, _ := net.Evaluate(xs, ys)
		return loss
	}
	plain := finalLoss(false)
	sc := finalLoss(true)
	if !(sc < plain) {
		t.Errorf("SC should improve delayed training: plain=%v sc=%v", plain, sc)
	}
}

func TestLWPHorizonOverride(t *testing.T) {
	cfg := Config{Delay: 4, LWP: true, LWPHorizon: 7}
	if cfg.horizon() != 7 {
		t.Fatalf("horizon override = %v", cfg.horizon())
	}
	cfg2 := Config{Delay: 4, LWP: true}
	if cfg2.horizon() != 4 {
		t.Fatalf("default horizon = %v", cfg2.horizon())
	}
	cfg3 := Config{Delay: 4, LWP: true, LWPScale: 2}
	if cfg3.horizon() != 8 {
		t.Fatalf("scaled horizon = %v", cfg3.horizon())
	}
	cfg4 := Config{Delay: 4}
	if cfg4.horizon() != 0 {
		t.Fatalf("no-LWP horizon = %v", cfg4.horizon())
	}
}

func TestLWPRunsBothForms(t *testing.T) {
	seed := int64(55)
	train, _ := blobTask(seed)
	for _, form := range []optim.LWPForm{optim.LWPVelocity, optim.LWPWeight} {
		net := models.DeepMLP(8, 10, 2, 4, seed)
		sim := New(net, Config{Delay: 4, LR: 0.02, Momentum: 0.95, BatchSize: 8,
			LWP: true, LWPForm: form})
		loss, _ := sim.TrainEpoch(train, nil, nil, nil)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("form %v: loss %v", form, loss)
		}
	}
}

func TestCombinedMitigationRuns(t *testing.T) {
	seed := int64(56)
	train, _ := blobTask(seed)
	net := models.DeepMLP(8, 10, 2, 4, seed)
	sim := New(net, Config{Delay: 6, LR: 0.02, Momentum: 0.95, BatchSize: 8,
		SC: true, LWP: true, LWPForm: optim.LWPVelocity})
	loss, acc := sim.TrainEpoch(train, nil, nil, nil)
	if math.IsNaN(loss) || acc < 0 || acc > 1 {
		t.Fatalf("combined run: loss=%v acc=%v", loss, acc)
	}
}

func TestJitterDelaySimulatesASGD(t *testing.T) {
	seed := int64(57)
	train, _ := blobTask(seed)
	net := models.DeepMLP(8, 10, 2, 4, seed)
	sim := New(net, Config{Delay: 4, JitterDelay: true, JitterSeed: 3,
		LR: 0.01, Momentum: 0.9, BatchSize: 8})
	loss, _ := sim.TrainEpoch(train, nil, nil, nil)
	if math.IsNaN(loss) {
		t.Fatal("ASGD-mode training produced NaN")
	}
	sim.Drain()
	if sim.QueueLen() != 0 {
		t.Fatal("drain left queued gradients")
	}
	// All forwards must eventually produce an update.
	if sim.Updates != train.Len()/8 {
		t.Fatalf("updates %d, want %d", sim.Updates, train.Len()/8)
	}
}

func TestJitterRequiresPositiveDelay(t *testing.T) {
	// JitterDelay draws uniform on [0, 2·Delay]: a zero or negative delay is
	// degenerate (and Intn would panic mid-epoch for negative ones), so New
	// must reject the config up front, not many batches in.
	seed := int64(58)
	net := models.DeepMLP(8, 10, 2, 4, seed)
	for _, d := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("JitterDelay with Delay=%d accepted", d)
				}
			}()
			New(net, Config{Delay: d, JitterDelay: true, LR: 0.05, Momentum: 0.9, BatchSize: 8})
		}()
	}
}

func TestJitterStreamDeterministic(t *testing.T) {
	// The documented contract: one jitter draw per batch in submission
	// order, stream seeded from JitterSeed alone — so a fixed (Delay,
	// JitterSeed, batch sequence) replays identical weights.
	seed := int64(61)
	train, _ := blobTask(seed)
	run := func() [][]float64 {
		net := models.DeepMLP(8, 10, 2, 4, seed)
		sim := New(net, Config{Delay: 3, JitterDelay: true, JitterSeed: 9,
			LR: 0.05, Momentum: 0.9, BatchSize: 8})
		sim.TrainEpoch(train, nil, nil, nil)
		sim.Drain()
		return net.SnapshotWeights()
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("identical jitter config produced different weights")
			}
		}
	}
}

func TestAdamUnderDelay(t *testing.T) {
	seed := int64(59)
	train, test := blobTask(seed)
	net := models.DeepMLP(8, 10, 2, 4, seed)
	sim := New(net, Config{Delay: 8, Consistent: true, UseAdam: true,
		LR: 0.005, Momentum: 0, BatchSize: 8})
	for e := 0; e < 6; e++ {
		sim.TrainEpoch(train, nil, nil, nil)
	}
	sim.Drain()
	xs, ys := test.Batches(16)
	_, acc := net.Evaluate(xs, ys)
	if acc < 0.5 {
		t.Fatalf("Adam failed to train under delay: acc=%v", acc)
	}
}

// QueueLen reports the number of pending backward passes.
func (t *Trainer) QueueLen() int { return len(t.queue) }

package core

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/optim"
)

func TestPBDeterminism(t *testing.T) {
	// Same seeds and order must give bit-identical weight trajectories.
	run := func() [][]float64 {
		seed := int64(60)
		train, _ := data.GaussianBlobs(6, 3, 50, 0, 1, 0.5, seed)
		net := models.DeepMLP(6, 8, 3, 3, seed)
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = LWPvDSCD
		pb := NewPBTrainer(net, cfg)
		pb.TrainEpoch(train, nil, nil, nil)
		return net.SnapshotWeights()
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("PB training is not deterministic")
			}
		}
	}
}

// TestPredictionDroppedAtQuiescence pins the fused-prediction invariant
// (DESIGN.md §7): mid-run a predicting stage's G holds ŵ, but Drain hands
// every G back zeroed on every engine, and SetStageUpdates drops the stage's
// prediction, so state written from outside the stage loop reaches the next
// forward's prediction.
func TestPredictionDroppedAtQuiescence(t *testing.T) {
	train, _ := data.GaussianBlobs(6, 3, 12, 0, 1, 0.5, 62)
	gradsZero := func(e replicaView, s int) bool {
		for _, p := range e.StageParams(s) {
			for _, g := range p.G.Data {
				if g != 0 {
					return false
				}
			}
		}
		return true
	}
	for _, kind := range []string{"seq", "lockstep", "async"} {
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = LWPvDSCD
		eng, err := NewEngine(kind, models.DeepMLP(6, 8, 3, 3, 62), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rv := eng.(replicaView)
		feedSlice(eng, train, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
		if kind == "seq" {
			// Only the seq engine may be inspected mid-run: stage 0 has
			// updated, so its G holds the next forward's ŵ.
			if gradsZero(rv, 0) {
				t.Fatalf("seq: stage 0 G is zero mid-run; the update should have left ŵ there")
			}
			rv.SetStageUpdates(0, rv.StageUpdates(0))
			if !gradsZero(rv, 0) {
				t.Fatalf("seq: SetStageUpdates left ŵ in stage 0's G")
			}
		}
		drain(eng)
		for s := 0; s < rv.NumStages(); s++ {
			if !gradsZero(rv, s) {
				t.Fatalf("%s: stage %d G not zero after Drain", kind, s)
			}
		}
		eng.Close()
	}
}

func TestSCIsPlainSGDAtZeroMomentum(t *testing.T) {
	// With m=0 the SCD coefficients are (0,1) for D>0 — i.e. w -= lr·g,
	// exactly plain SGD. The whole trajectory must match the unmitigated run.
	seed := int64(61)
	train, _ := data.GaussianBlobs(6, 3, 40, 0, 1, 0.5, seed)
	netA := models.DeepMLP(6, 8, 2, 3, seed)
	netB := models.DeepMLP(6, 8, 2, 3, seed)
	cfgPlain := Config{LR: 0.05, Momentum: 0}
	cfgSC := Config{LR: 0.05, Momentum: 0, Mitigation: SCD}
	NewPBTrainer(netA, cfgPlain).TrainEpoch(train, nil, nil, nil)
	NewPBTrainer(netB, cfgSC).TrainEpoch(train, nil, nil, nil)
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pb[i].W, 1e-12) {
			t.Fatal("SC at zero momentum must equal plain PB")
		}
	}
}

func TestSpecTrainSingleStageIsNoOp(t *testing.T) {
	// With one stage both SpecTrain horizons are zero; the trajectory must
	// match plain PB exactly.
	seed := int64(62)
	train, _ := data.GaussianBlobs(6, 3, 40, 0, 1, 0.5, seed)
	netA := models.DeepMLP(6, 0, 0, 3, seed)
	netB := models.DeepMLP(6, 0, 0, 3, seed)
	NewPBTrainer(netA, Config{LR: 0.05, Momentum: 0.9}).TrainEpoch(train, nil, nil, nil)
	NewPBTrainer(netB, Config{LR: 0.05, Momentum: 0.9, Mitigation: SpecTrain}).TrainEpoch(train, nil, nil, nil)
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pb[i].W, 1e-12) {
			t.Fatal("SpecTrain on a single stage must be a no-op")
		}
	}
}

func TestGradShrinkScalesUpdates(t *testing.T) {
	// With momentum 0, gradient shrinking by γ^D must scale each stage's
	// first update by exactly γ^D relative to the unshrunk run.
	seed := int64(63)
	train, _ := data.GaussianBlobs(6, 3, 30, 0, 1, 0.5, seed)
	gamma := 0.5
	netA := models.DeepMLP(6, 8, 2, 3, seed) // 3 stages: delays 4,2,0
	netB := models.DeepMLP(6, 8, 2, 3, seed)
	startA := netA.SnapshotWeights()

	// One sample only: push, then run to completion.
	trA := NewPBTrainer(netA, Config{LR: 0.1, Momentum: 0})
	trB := NewPBTrainer(netB, Config{LR: 0.1, Momentum: 0, Mitigation: Mitigation{GradShrink: gamma}})
	x, y := train.Sample(0)
	trA.Push(x.Clone(), y)
	drain(trA)
	x2, y2 := train.Sample(0)
	trB.Push(x2, y2)
	drain(trB)

	delays := StageDelays(netA.NumStages())
	pa, pb := netA.Params(), netB.Params()
	// Map params to stages: stage i params are contiguous in order.
	idx := 0
	for si, st := range netA.Stages {
		scale := math.Pow(gamma, float64(delays[si]))
		for range st.Params() {
			for j := range pa[idx].W.Data {
				dA := pa[idx].W.Data[j] - startA[idx][j]
				dB := pb[idx].W.Data[j] - startA[idx][j]
				if math.Abs(dB-scale*dA) > 1e-9*(1+math.Abs(dA)) {
					t.Fatalf("stage %d param %d: shrunk update %v != %v × %v", si, idx, dB, scale, dA)
				}
			}
			idx++
		}
	}
}

func TestPBPerStageVelocityIndependence(t *testing.T) {
	// Each stage owns its optimizer: velocities must not leak across stages.
	seed := int64(64)
	train, _ := data.GaussianBlobs(6, 3, 30, 0, 1, 0.5, seed)
	net := models.DeepMLP(6, 8, 2, 3, seed)
	cfg := Config{LR: 0.05, Momentum: 0.9}
	pb := NewPBTrainer(net, cfg)
	pb.TrainEpoch(train, nil, nil, nil)
	for i, st := range pb.stages {
		for j, st2 := range pb.stages {
			if i != j && st.opt == st2.opt {
				t.Fatal("stages share an optimizer")
			}
		}
	}
}

func TestFillDrainLastPartialBatch(t *testing.T) {
	// Dataset size not divisible by batch: the final smaller batch must be
	// averaged over its own size, matching the SGDM reference.
	seed := int64(65)
	train, _ := data.GaussianBlobs(6, 3, 21, 0, 1, 0.5, seed) // 21 = 2*8 + 5
	netA := models.DeepMLP(6, 8, 2, 3, seed)
	netB := models.DeepMLP(6, 8, 2, 3, seed)
	cfg := Config{LR: 0.05, Momentum: 0.9}
	NewFillDrainTrainer(netA, cfg, 8).TrainEpoch(train, nil, nil, nil)
	NewSGDTrainer(netB, cfg, 8).TrainEpoch(train, nil, nil, nil)
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pb[i].W, 1e-10) {
			t.Fatal("partial-batch fill&drain deviates from SGD")
		}
	}
}

func TestWeightDecayThroughPipeline(t *testing.T) {
	// Weight decay must apply through the PB engine too: with zero gradients
	// (frozen loss via zero LR schedule this cannot be observed), so compare
	// two PB runs differing only in decay.
	seed := int64(66)
	train, _ := data.GaussianBlobs(6, 3, 30, 0, 1, 0.5, seed)
	netA := models.DeepMLP(6, 8, 2, 3, seed)
	netB := models.DeepMLP(6, 8, 2, 3, seed)
	cfgA := Config{LR: 0.05, Momentum: 0.9}
	cfgB := Config{LR: 0.05, Momentum: 0.9, WeightDecay: 0.1}
	NewPBTrainer(netA, cfgA).TrainEpoch(train, nil, nil, nil)
	NewPBTrainer(netB, cfgB).TrainEpoch(train, nil, nil, nil)
	// The decayed run must have strictly smaller parameter norm.
	normA, normB := 0.0, 0.0
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		normA += pa[i].W.Norm2()
		normB += pb[i].W.Norm2()
	}
	if normB >= normA {
		t.Fatalf("weight decay did not shrink weights: %v vs %v", normB, normA)
	}
}

func TestSC2DUsesDoubledDelay(t *testing.T) {
	net, _, _ := trainSetup(3, 67) // 4 stages, first stage delay 6
	pb := NewPBTrainer(net, Config{LR: 0.01, Momentum: 0.9, Mitigation: SC2D})
	wantA, wantB := optim.SpikeCoefficients(0.9, 12)
	first := pb.stages[0]
	if math.Abs(first.opt.A-wantA) > 1e-12 || math.Abs(first.opt.B-wantB) > 1e-12 {
		t.Fatalf("SC2D coefficients (%v,%v), want (%v,%v)", first.opt.A, first.opt.B, wantA, wantB)
	}
}

func TestUpdateCountsMatchSamples(t *testing.T) {
	// Every completed sample produces exactly one update per parameterized
	// stage (update size one).
	net, train, _ := trainSetup(3, 68)
	pb := NewPBTrainer(net, Config{LR: 0.01, Momentum: 0.9})
	pb.TrainEpoch(train, nil, nil, nil)
	for i, st := range pb.stages {
		if st.updates != train.Len() {
			t.Fatalf("stage %d applied %d updates for %d samples", i, st.updates, train.Len())
		}
	}
}

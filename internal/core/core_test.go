package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/schedviz"
)

func TestStageDelays(t *testing.T) {
	d := StageDelays(4)
	want := []int{6, 4, 2, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("StageDelays(4) = %v, want %v", d, want)
		}
	}
	if StageDelays(1)[0] != 0 {
		t.Fatal("single stage must have zero delay")
	}
}

// Property: delays decrease by exactly 2 per stage and end at 0 (Eq. 5).
func TestStageDelaysProperty(t *testing.T) {
	f := func(n uint8) bool {
		s := int(n)%50 + 1
		d := StageDelays(s)
		if d[s-1] != 0 || d[0] != 2*(s-1) {
			return false
		}
		for i := 1; i < s; i++ {
			if d[i-1]-d[i] != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMitigationNames pins the paper label of every preset. The doubled LWP
// variants keep their velocity/weight form suffix ("PB+LWPv2D"/"PB+LWPw2D");
// they used to collapse onto one "PB+LWP2D" label that lost the distinction
// and mislabeled weight-form LWP2D in every experiment table.
func TestMitigationNames(t *testing.T) {
	cases := map[string]Mitigation{
		"PB":             None,
		"PB+SCD":         SCD,
		"PB+SC2D":        SC2D,
		"PB+LWPvD":       LWPvD,
		"PB+LWPwD":       LWPwD,
		"PB+LWPv2D":      LWP2D,
		"PB+LWPw2D":      {LWP: true, LWPForm: optim.LWPWeight, LWPScale: 2},
		"PB+LWPvD+SCD":   LWPvDSCD,
		"PB+LWPwD+SCD":   LWPwDSCD,
		"PB+SpecTrain":   SpecTrain,
		"PB+WS":          WeightStash,
		"PB+GradShrink":  {GradShrink: 0.9},
		"PB+LWPv2D+SC2D": {SC: true, SCScale: 2, LWP: true, LWPScale: 2},
	}
	for want, m := range cases {
		if got := m.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := ScaledConfig(0.1, 0.9, 128, 1)
	wantEta, wantM := optim.Scale(0.1, 0.9, 128, 1)
	if cfg.LR != wantEta || cfg.Momentum != wantM {
		t.Fatalf("ScaledConfig = %+v", cfg)
	}
}

// trainSetup builds a deterministic blob task and a fresh MLP.
func trainSetup(depth int, seed int64) (*nn.Network, *data.Dataset, *data.Dataset) {
	train, test := data.GaussianBlobs(8, 4, 64, 32, 3, 0.8, seed)
	net := models.DeepMLP(8, 12, depth, 4, seed+100)
	return net, train, test
}

func TestPBSingleStageEqualsSGDM(t *testing.T) {
	// With one pipeline stage there is no delay or inconsistency, so PB must
	// reproduce sequential batch-size-1 SGDM exactly.
	seed := int64(31)
	train, _ := data.GaussianBlobs(6, 3, 40, 0, 1, 0.5, seed)
	netPB := models.DeepMLP(6, 0, 0, 3, seed) // 0 hidden stages → single stage
	netSGD := models.DeepMLP(6, 0, 0, 3, seed)
	if netPB.NumStages() != 1 {
		t.Fatalf("expected 1 stage, got %d", netPB.NumStages())
	}
	cfg := Config{LR: 0.05, Momentum: 0.9}
	pb := NewPBTrainer(netPB, cfg)
	sgd := NewSGDTrainer(netSGD, cfg, 1)
	pb.TrainEpoch(train, nil, nil, nil)
	sgd.TrainEpoch(train, nil, nil, nil)
	p1, p2 := netPB.Params(), netSGD.Params()
	for i := range p1 {
		if !p1[i].W.AllClose(p2[i].W, 1e-12) {
			t.Fatalf("param %s diverges between PB(S=1) and SGDM", p1[i].Name)
		}
	}
}

func TestFillDrainEqualsSGD(t *testing.T) {
	// Fig. 16 validation: fill-and-drain pipeline SGD must produce the same
	// weight trajectory as plain mini-batch SGDM.
	seed := int64(32)
	train, _ := data.GaussianBlobs(6, 3, 48, 0, 1, 0.5, seed)
	netFD := models.DeepMLP(6, 10, 3, 3, seed)
	netSGD := models.DeepMLP(6, 10, 3, 3, seed)
	cfg := Config{LR: 0.05, Momentum: 0.9}
	fd := NewFillDrainTrainer(netFD, cfg, 8)
	sgd := NewSGDTrainer(netSGD, cfg, 8)
	for epoch := 0; epoch < 2; epoch++ {
		fd.TrainEpoch(train, nil, nil, nil)
		sgd.TrainEpoch(train, nil, nil, nil)
	}
	p1, p2 := netFD.Params(), netSGD.Params()
	for i := range p1 {
		if !p1[i].W.AllClose(p2[i].W, 1e-10) {
			t.Fatalf("param %s: fill&drain deviates from SGD", p1[i].Name)
		}
	}
	// Exact utilization is N/(N+2S−2); the paper's Eq. 1 bound N/(N+2S)
	// uses the N+2S−2 ≈ N+2S approximation, so exact ≥ bound, slightly.
	util := fd.Utilization()
	s := netFD.NumStages()
	exact := 8.0 / float64(8+2*s-2)
	bound := schedviz.UtilizationBound(8, s)
	if math.Abs(util-exact) > 1e-9 {
		t.Fatalf("utilization %v, want exact %v", util, exact)
	}
	if util < bound {
		t.Fatalf("exact utilization %v below approximate bound %v", util, bound)
	}
}

func TestObservedDelaysMatchAnalytic(t *testing.T) {
	// In steady state every stage must observe exactly D_s = 2(S−1−s)
	// updates between forward and backward of a sample.
	net, train, _ := trainSetup(4, 33) // 5 stages
	pb := NewPBTrainer(net, Config{LR: 0.001, Momentum: 0.5})
	pb.TrainEpoch(train, nil, nil, nil)
	want := pb.Delays()
	got := pb.ObservedDelays()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d observed delay %d, want %d (all: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestPBDrainCompletesAllSamples(t *testing.T) {
	net, train, _ := trainSetup(3, 34)
	pb := NewPBTrainer(net, Config{LR: 0.01, Momentum: 0.9})
	loss, acc := pb.TrainEpoch(train, nil, nil, nil)
	if pb.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", pb.Outstanding())
	}
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("implausible loss %v", loss)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("implausible accuracy %v", acc)
	}
	// One sample per step plus fill/drain bubbles.
	if pb.Steps < train.Len() || pb.Steps > train.Len()+2*net.NumStages() {
		t.Fatalf("steps = %d for %d samples", pb.Steps, train.Len())
	}
}

func TestPBLearnsBlobs(t *testing.T) {
	net, train, test := trainSetup(3, 35)
	cfg := ScaledConfig(0.1, 0.9, 16, 1)
	pb := NewPBTrainer(net, cfg)
	rng := rand.New(rand.NewSource(1))
	for epoch := 0; epoch < 8; epoch++ {
		pb.TrainEpoch(train, train.Perm(rng), nil, rng)
	}
	xs, ys := test.Batches(16)
	_, acc := net.Evaluate(xs, ys)
	if acc < 0.7 {
		t.Fatalf("PB failed to learn separable blobs: acc=%v", acc)
	}
}

func TestPBUtilizationApproachesOne(t *testing.T) {
	net, train, _ := trainSetup(4, 36)
	pb := NewPBTrainer(net, Config{LR: 0.001, Momentum: 0.5})
	completed := 0
	for epoch := 0; epoch < 4; epoch++ {
		pb.TrainEpoch(train, nil, nil, nil)
		completed += train.Len()
	}
	st := pb.Stats()
	if st.Completed != completed || st.Submitted != completed {
		t.Fatalf("stats counted %d/%d samples, want %d", st.Completed, st.Submitted, completed)
	}
	util := st.Utilization
	fdBound := schedviz.UtilizationBound(1, net.NumStages())
	if util <= fdBound {
		t.Fatalf("PB utilization %v should far exceed the N=1 fill&drain bound %v", util, fdBound)
	}
	if util < 0.8 || util > 1 {
		t.Fatalf("PB steady-state utilization %v outside (0.8, 1]", util)
	}
}

func TestUtilizationBound(t *testing.T) {
	if got := schedviz.UtilizationBound(1, 50); math.Abs(got-1.0/101.0) > 1e-12 {
		t.Fatalf("bound(1,50) = %v", got)
	}
	if got := schedviz.UtilizationBound(256, 10); got <= 0.9 {
		t.Fatalf("bound(256,10) = %v", got)
	}
}

func TestPushTwicePanics(t *testing.T) {
	net, train, _ := trainSetup(2, 37)
	pb := NewPBTrainer(net, Config{LR: 0.01, Momentum: 0})
	x, y := train.Sample(0)
	pb.Push(x, y)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Push")
		}
	}()
	pb.Push(x, y)
}

func TestSpikeCoefficientsPerStage(t *testing.T) {
	net, _, _ := trainSetup(3, 38) // 4 stages
	cfg := Config{LR: 0.01, Momentum: 0.9, Mitigation: SCD}
	pb := NewPBTrainer(net, cfg)
	// Last stage: delay 0 → plain SGDM coefficients.
	last := pb.stages[len(pb.stages)-1]
	if last.opt.A != 1 || last.opt.B != 0 {
		t.Fatalf("last stage coefficients (%v,%v), want (1,0)", last.opt.A, last.opt.B)
	}
	// First stage: delay 2(S−1)=6.
	first := pb.stages[0]
	wantA, wantB := optim.SpikeCoefficients(0.9, 6)
	if math.Abs(first.opt.A-wantA) > 1e-12 || math.Abs(first.opt.B-wantB) > 1e-12 {
		t.Fatalf("first stage coefficients (%v,%v), want (%v,%v)", first.opt.A, first.opt.B, wantA, wantB)
	}
}

func TestMitigatedVariantsRun(t *testing.T) {
	// Every mitigation preset must run a full epoch and drain cleanly.
	for _, mit := range []Mitigation{None, SCD, SC2D, LWPvD, LWPwD, LWP2D,
		LWPvDSCD, LWPwDSCD, SpecTrain, WeightStash, {GradShrink: 0.9}} {
		net, train, _ := trainSetup(3, 39)
		cfg := ScaledConfig(0.1, 0.9, 16, 1)
		cfg.Mitigation = mit
		pb := NewPBTrainer(net, cfg)
		loss, _ := pb.TrainEpoch(train, nil, nil, nil)
		if pb.Outstanding() != 0 {
			t.Fatalf("%s left %d samples in flight", mit.Name(), pb.Outstanding())
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s produced loss %v", mit.Name(), loss)
		}
	}
}

func TestWeightStashNoOpForSingleStage(t *testing.T) {
	// With one stage there is no inconsistency, so stashing must not change
	// the trajectory.
	seed := int64(40)
	train, _ := data.GaussianBlobs(6, 3, 40, 0, 1, 0.5, seed)
	net1 := models.DeepMLP(6, 0, 0, 3, seed)
	net2 := models.DeepMLP(6, 0, 0, 3, seed)
	cfg := Config{LR: 0.05, Momentum: 0.9}
	cfgWS := cfg
	cfgWS.Mitigation = WeightStash
	NewPBTrainer(net1, cfg).TrainEpoch(train, nil, nil, nil)
	NewPBTrainer(net2, cfgWS).TrainEpoch(train, nil, nil, nil)
	p1, p2 := net1.Params(), net2.Params()
	for i := range p1 {
		if !p1[i].W.AllClose(p2[i].W, 1e-12) {
			t.Fatal("stashing changed a single-stage trajectory")
		}
	}
}

func TestWeightStashRemovesInconsistency(t *testing.T) {
	// Instrumented check: with stashing, the backward pass of a stage uses
	// the same weights as its forward pass. We detect this by freezing the
	// learning dynamics: make the update huge so current weights differ a
	// lot from stashed ones, then verify gradients differ between stashed
	// and non-stashed runs.
	seed := int64(41)
	train, _ := data.GaussianBlobs(6, 3, 30, 0, 1, 0.5, seed)
	run := func(stash bool) []float64 {
		net := models.DeepMLP(6, 8, 2, 3, seed)
		cfg := Config{LR: 0.3, Momentum: 0.9}
		if stash {
			cfg.Mitigation = WeightStash
		}
		pb := NewPBTrainer(net, cfg)
		pb.TrainEpoch(train, nil, nil, nil)
		return net.Params()[0].W.Data
	}
	a, b := run(false), run(true)
	same := true
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("stashing had no effect on a multi-stage pipeline with large LR")
	}
}

func TestLWPChangesTrajectoryOnlyWithDelay(t *testing.T) {
	seed := int64(42)
	train, _ := data.GaussianBlobs(6, 3, 30, 0, 1, 0.5, seed)
	// Multi-stage: LWP must alter the trajectory.
	netA := models.DeepMLP(6, 8, 2, 3, seed)
	netB := models.DeepMLP(6, 8, 2, 3, seed)
	cfgPlain := Config{LR: 0.1, Momentum: 0.9}
	cfgLWP := cfgPlain
	cfgLWP.Mitigation = LWPvD
	NewPBTrainer(netA, cfgPlain).TrainEpoch(train, nil, nil, nil)
	NewPBTrainer(netB, cfgLWP).TrainEpoch(train, nil, nil, nil)
	diff := 0.0
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			diff += math.Abs(pa[i].W.Data[j] - pb[i].W.Data[j])
		}
	}
	if diff == 0 {
		t.Fatal("LWP had no effect on a delayed pipeline")
	}
	// Single stage (D=0 → T=0): LWP must be a no-op.
	netC := models.DeepMLP(6, 0, 0, 3, seed)
	netD := models.DeepMLP(6, 0, 0, 3, seed)
	NewPBTrainer(netC, cfgPlain).TrainEpoch(train, nil, nil, nil)
	NewPBTrainer(netD, cfgLWP).TrainEpoch(train, nil, nil, nil)
	pc, pd := netC.Params(), netD.Params()
	for i := range pc {
		if !pc[i].W.AllClose(pd[i].W, 1e-12) {
			t.Fatal("LWP with zero delay must be identity")
		}
	}
}

func TestResultsArriveInOrder(t *testing.T) {
	net, train, _ := trainSetup(3, 43)
	pb := NewPBTrainer(net, Config{LR: 0.01, Momentum: 0.9})
	lastID := -1
	n := 20
	for i := 0; i < n; i++ {
		x, y := train.Sample(i)
		pb.Push(x, y)
		if r := pb.Step(); r != nil {
			if r.ID != lastID+1 {
				t.Fatalf("out-of-order result: %d after %d", r.ID, lastID)
			}
			lastID = r.ID
		}
	}
	for _, r := range drain(pb) {
		if r.ID != lastID+1 {
			t.Fatalf("out-of-order drain result: %d after %d", r.ID, lastID)
		}
		lastID = r.ID
	}
	if lastID != n-1 {
		t.Fatalf("lost samples: last ID %d, want %d", lastID, n-1)
	}
}

func TestResNetThroughPipeline(t *testing.T) {
	// The residual packet plumbing must survive the PB engine: skip
	// activations travel alongside the main path across stages.
	cfgNet := models.MiniResNet(20, 4, 8, 4, 44)
	net := models.ResNet(cfgNet)
	train, _ := data.GaussianBlobs(1, 1, 1, 0, 1, 1, 1) // placeholder, not used
	_ = train
	imgCfg := data.CIFAR10Like(8, 24, 8, 45)
	imgCfg.Classes = 4
	tr, _ := data.GenerateImages(imgCfg)
	cfg := ScaledConfig(0.1, 0.9, 16, 1)
	pb := NewPBTrainer(net, cfg)
	loss, _ := pb.TrainEpoch(tr, nil, nil, nil)
	if pb.Outstanding() != 0 || math.IsNaN(loss) {
		t.Fatalf("ResNet pipeline failed: outstanding=%d loss=%v", pb.Outstanding(), loss)
	}
	if got, want := net.NumStages(), 9*3+4; got != want {
		t.Fatalf("RN20 stage count %d, want %d", got, want)
	}
}

func TestAssembleBatchAugmented(t *testing.T) {
	tr, _ := data.GaussianBlobs(4, 2, 10, 0, 1, 0.2, 46)
	rng := rand.New(rand.NewSource(2))
	x, y := AssembleBatch(tr, []int{1, 3}, data.NoAugment{}, rng)
	if x.Shape[0] != 2 || len(y) != 2 {
		t.Fatal("batch assembly wrong")
	}
	if y[0] != tr.Labels[1] {
		t.Fatal("label mismatch")
	}
}

func TestScheduleAppliedPerUpdate(t *testing.T) {
	net, train, _ := trainSetup(2, 47)
	cfg := Config{LR: 1, Momentum: 0, Schedule: stepOne{}}
	pb := NewPBTrainer(net, cfg)
	pb.TrainEpoch(train, nil, nil, nil)
	// With a schedule returning 0, weights must not move at all.
	net2, _, _ := trainSetup(2, 47)
	p1, p2 := net.Params(), net2.Params()
	for i := range p1 {
		if !p1[i].W.AllClose(p2[i].W, 0) {
			t.Fatal("zero-LR schedule still moved weights")
		}
	}
}

// stepOne is a schedule returning zero forever (freeze training).
type stepOne struct{}

func (stepOne) LR(int) float64 { return 0 }

package models

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

func TestMLPStageCount(t *testing.T) {
	net := DeepMLP(8, 16, 5, 4, 1)
	if net.NumStages() != 6 {
		t.Fatalf("stages = %d, want 6", net.NumStages())
	}
	net0 := DeepMLP(8, 0, 0, 4, 1)
	if net0.NumStages() != 1 {
		t.Fatalf("zero-depth MLP stages = %d, want 1", net0.NumStages())
	}
}

func TestMLPForwardShape(t *testing.T) {
	net := DeepMLP(8, 16, 3, 5, 2)
	x := tensor.New(4, 8)
	logits, _ := net.Forward(x)
	if logits.Shape[0] != 4 || logits.Shape[1] != 5 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
}

func TestResNetStageCountFormula(t *testing.T) {
	// Stage count = 9n+4 for ResNet-(6n+2); the paper's GProp counted a few
	// extra I/O nodes (34 for RN20 vs our 31) but scales identically.
	for _, c := range []struct{ depth, wantStages int }{
		{20, 31}, {32, 49}, {44, 67}, {56, 85}, {110, 166},
	} {
		net := ResNet(MiniResNet(c.depth, 4, 8, 10, 1))
		if got := net.NumStages(); got != c.wantStages {
			t.Fatalf("RN%d stages = %d, want %d", c.depth, got, c.wantStages)
		}
	}
}

func TestResNetForwardShapesAndDownsampling(t *testing.T) {
	net := ResNet(MiniResNet(20, 4, 8, 10, 3))
	x := tensor.New(2, 3, 8, 8)
	logits, _ := net.Forward(x)
	if logits.Shape[0] != 2 || logits.Shape[1] != 10 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
}

func TestResNetGradientFlowsToStem(t *testing.T) {
	net := ResNet(MiniResNet(20, 4, 8, 4, 4))
	x := tensor.New(1, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = float64(i%7)/7 - 0.5
	}
	net.ZeroGrad()
	net.LossAndGrad(x, []int{2})
	stem := net.Params()[0]
	if stem.Grad().MaxAbs() == 0 {
		t.Fatal("no gradient reached the stem conv — skip plumbing broken")
	}
}

func TestResNetTrainsOnImages(t *testing.T) {
	cfg := data.CIFAR10Like(8, 60, 30, 5)
	cfg.Classes = 3
	train, _ := data.GenerateImages(cfg)
	net := ResNet(MiniResNet(20, 4, 8, 3, 6))
	// A few SGD steps must reduce training loss.
	lossAt := func() float64 {
		xs, ys := train.Batches(30)
		l, _ := net.Evaluate(xs, ys)
		return l
	}
	before := lossAt()
	opt := newTestOpt(net)
	for epoch := 0; epoch < 3; epoch++ {
		xs, ys := train.Batches(10)
		for i := range xs {
			net.ZeroGrad()
			net.LossAndGrad(xs[i], ys[i])
			opt.Step(net.Params())
		}
	}
	after := lossAt()
	if after >= before {
		t.Fatalf("ResNet failed to learn: %v → %v", before, after)
	}
}

func TestVGGStageCounts(t *testing.T) {
	// Conv stages + pools (capped by spatial size) + GAP + FC.
	for _, c := range []struct{ depth, convs int }{
		{11, 8}, {13, 10}, {16, 13},
	} {
		net := VGG(MiniVGG(c.depth, 8, 8, 10, 1))
		// 8x8 input supports pools at 8 and 4 → 2 pool stages (down to 2x2).
		want := c.convs + 2 + 2
		if got := net.NumStages(); got != want {
			t.Fatalf("VGG%d stages = %d, want %d", c.depth, got, want)
		}
	}
}

func TestVGGForward(t *testing.T) {
	net := VGG(MiniVGG(11, 8, 8, 10, 2))
	x := tensor.New(2, 3, 8, 8)
	logits, _ := net.Forward(x)
	if logits.Shape[0] != 2 || logits.Shape[1] != 10 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
}

func TestVGGWidthFloor(t *testing.T) {
	// Extreme width division must clamp to >= 2 channels.
	net := VGG(MiniVGG(11, 1024, 8, 10, 3))
	x := tensor.New(1, 3, 8, 8)
	logits, _ := net.Forward(x)
	if math.IsNaN(logits.Data[0]) {
		t.Fatal("clamped VGG produced NaN")
	}
}

func TestTinyCNN(t *testing.T) {
	net := TinyCNN(3, 8, 5, 7)
	if net.NumStages() != 3 {
		t.Fatalf("TinyCNN stages = %d", net.NumStages())
	}
	x := tensor.New(2, 3, 8, 8)
	logits, _ := net.Forward(x)
	if logits.Shape[1] != 5 {
		t.Fatalf("TinyCNN logits %v", logits.Shape)
	}
}

func TestMiniResNetDepthMapping(t *testing.T) {
	if MiniResNet(20, 8, 8, 10, 1).BlocksPerGroup != 3 {
		t.Fatal("RN20 → n=3")
	}
	if MiniResNet(110, 8, 8, 10, 1).BlocksPerGroup != 18 {
		t.Fatal("RN110 → n=18")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := ResNet(MiniResNet(20, 4, 8, 10, 9))
	b := ResNet(MiniResNet(20, 4, 8, 10, 9))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.AllClose(pb[i].W, 0) {
			t.Fatal("same seed must build identical networks")
		}
	}
}

// newTestOpt builds a small optimizer for the training smoke test.
func newTestOpt(net *nn.Network) *optim.Momentum {
	_ = net
	return optim.NewMomentum(0.05, 0.9)
}

package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestConv1x1Stride2(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	c := NewConv2D("c", 4, 2, 1, 2, 0, true, rng)
	x := tensor.New(1, 4, 6, 6)
	tensor.Normal(x, 1, rng)
	y, _ := c.Forward(x, nil, nil)
	if y.Shape[2] != 3 || y.Shape[3] != 3 {
		t.Fatalf("1x1 stride-2 output %v", y.Shape)
	}
	gradCheckLayer(t, c, x, 1e-4, rng)
}

func TestGroupNormSingleGroup(t *testing.T) {
	// One group normalizes over all channels jointly.
	rng := rand.New(rand.NewSource(71))
	g := NewGroupNorm("gn", 4, 1)
	x := tensor.New(1, 4, 2, 2)
	tensor.Normal(x, 3, rng)
	y, _ := g.Forward(x, nil, nil)
	mu := y.Mean()
	if math.Abs(mu) > 1e-9 {
		t.Fatalf("single-group mean %v", mu)
	}
	gradCheckLayer(t, g, x, 1e-4, rng)
}

func TestGroupNormChannelwise(t *testing.T) {
	// groups == channels is InstanceNorm; each channel normalized alone.
	rng := rand.New(rand.NewSource(72))
	g := NewGroupNorm("gn", 3, 3)
	x := tensor.New(2, 3, 4, 4)
	tensor.Normal(x, 2, rng)
	x.Data[0] += 50
	y, _ := g.Forward(x, nil, nil)
	seg := y.Data[:16] // sample 0, channel 0
	mu := 0.0
	for _, v := range seg {
		mu += v
	}
	if math.Abs(mu/16) > 1e-9 {
		t.Fatalf("instance-norm channel mean %v", mu/16)
	}
}

func TestNestedSkipStacks(t *testing.T) {
	// Two skips in flight simultaneously (nested residual structure):
	// push, push, add, add must reconstruct gradients correctly.
	rng := rand.New(rand.NewSource(73))
	d1 := NewDense("d1", 4, 4, false, rng)
	d2 := NewDense("d2", 4, 4, false, rng)
	net := NewNetwork(
		NewPushSkip("p1", nil),
		NewLayerStage("s1", d1),
		NewPushSkip("p2", nil),
		NewLayerStage("s2", d2),
		NewAddSkip("a2"),
		NewAddSkip("a1"),
	)
	x := tensor.New(1, 4)
	tensor.Normal(x, 1, rng)
	net.ZeroGrad()
	logits, ctxs := net.Forward(x)
	// y = (d2(d1(x)) + d1(x)) + x
	manual := func() *tensor.Tensor {
		h1, _ := d1.Forward(x, nil, nil)
		h2, _ := d2.Forward(h1, nil, nil)
		out := h2.Clone()
		out.Add(h1)
		out.Add(x)
		return out
	}()
	if !logits.AllClose(manual, 1e-12) {
		t.Fatal("nested skips produce wrong forward value")
	}
	// Gradient check through the full structure.
	dl := tensor.New(1, 4)
	tensor.Normal(dl, 1, rng)
	net.Backward(dl, ctxs)
	const eps = 1e-6
	loss := func() float64 {
		lg, _ := net.Forward(x)
		s := 0.0
		for i := range lg.Data {
			s += lg.Data[i] * dl.Data[i]
		}
		return s
	}
	for _, p := range net.Params() {
		for k := 0; k < 4; k++ {
			i := rng.Intn(p.W.Size())
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad().Data[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: %v vs %v", p.Name, i, p.Grad().Data[i], num)
			}
		}
	}
}

func TestSoftmaxStabilityHugeLogits(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 999, -1000}, 1, 3)
	var head SoftmaxCrossEntropy
	loss, dl := head.Loss(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	for _, v := range dl.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN gradient")
		}
	}
	if loss > 1 {
		t.Fatalf("loss %v too large for a confident correct prediction", loss)
	}
}

func TestAddSkipShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	net := NewNetwork(
		NewPushSkip("p", nil),
		NewLayerStage("d", NewDense("d", 4, 3, false, rng)), // changes width
		NewAddSkip("a"),
	)
	x := tensor.New(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	net.Forward(x)
}

func TestLayerStageEmptySkipPass(t *testing.T) {
	// A LayerStage must pass an existing skip stack through untouched.
	rng := rand.New(rand.NewSource(75))
	st := NewLayerStage("s", NewDense("d", 3, 3, false, rng))
	skip := tensor.New(1, 3)
	p := &Packet{X: tensor.New(1, 3), Skips: []*tensor.Tensor{skip}}
	q, _ := st.Forward(p, nil, nil)
	if len(q.Skips) != 1 || q.Skips[0] != skip {
		t.Fatal("LayerStage disturbed the skip stack")
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// gradCheckLayer validates a layer's analytic gradients against central
// finite differences through a random linear functional of the output.
func gradCheckLayer(t *testing.T, l Layer, x *tensor.Tensor, tol float64, rng *rand.Rand) {
	t.Helper()
	y, _ := l.Forward(x, nil, nil)
	rw := tensor.New(y.Shape...)
	tensor.Normal(rw, 1, rng)
	loss := func() float64 {
		yy, _ := l.Forward(x, nil, nil)
		s := 0.0
		for i := range yy.Data {
			s += yy.Data[i] * rw.Data[i]
		}
		return s
	}
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	_, ctx := l.Forward(x, nil, nil)
	dx := l.Backward(rw.Clone(), ctx, nil, nil)

	const eps = 1e-6
	checkTensor := func(name string, w, g *tensor.Tensor, trials int) {
		for k := 0; k < trials; k++ {
			i := rng.Intn(w.Size())
			orig := w.Data[i]
			w.Data[i] = orig + eps
			lp := loss()
			w.Data[i] = orig - eps
			lm := loss()
			w.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-g.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, g.Data[i], num)
			}
		}
	}
	checkTensor(l.Name()+".x", x, dx, 15)
	for _, p := range l.Params() {
		checkTensor(p.Name, p.W, p.Grad(), 10)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDense("fc", 7, 4, true, rng)
	x := tensor.New(3, 7)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, d, x, 1e-5, rng)
}

func TestDenseNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense("fc", 5, 5, false, rng)
	if len(d.Params()) != 1 {
		t.Fatalf("no-bias dense should expose 1 param, got %d", len(d.Params()))
	}
	x := tensor.New(2, 5)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, d, x, 1e-5, rng)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := NewConv2D("conv", 2, 3, 3, 1, 1, true, rng)
	x := tensor.New(2, 2, 5, 5)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, c, x, 1e-4, rng)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := NewConv2D("conv", 3, 2, 3, 2, 1, false, rng)
	x := tensor.New(1, 3, 8, 8)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, c, x, 1e-4, rng)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := tensor.New(4, 9)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, ReLU{}, x, 1e-5, rng)
}

func TestGroupNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := NewGroupNorm("gn", 4, 2)
	// Perturb gamma/beta away from the identity so gradients are generic.
	tensor.Normal(g.Gamma.W, 0.3, rng)
	g.Gamma.W.Scale(0.5)
	for i := range g.Gamma.W.Data {
		g.Gamma.W.Data[i] += 1
	}
	tensor.Normal(g.Beta.W, 0.3, rng)
	x := tensor.New(2, 4, 3, 3)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, g, x, 1e-4, rng)
}

func TestGroupNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := NewGroupNorm("gn", 6, 3)
	x := tensor.New(1, 6, 4, 4)
	tensor.Normal(x, 5, rng)
	x.Data[0] += 100 // large shift should be removed
	y, _ := g.Forward(x, nil, nil)
	// Each group (2 channels x 16 px = 32 values) must have ~zero mean, ~unit var.
	for gr := 0; gr < 3; gr++ {
		seg := y.Data[gr*32 : (gr+1)*32]
		mu, va := 0.0, 0.0
		for _, v := range seg {
			mu += v
		}
		mu /= 32
		for _, v := range seg {
			va += (v - mu) * (v - mu)
		}
		va /= 32
		if math.Abs(mu) > 1e-9 || math.Abs(va-1) > 1e-3 {
			t.Fatalf("group %d not normalized: mean=%v var=%v", gr, mu, va)
		}
	}
}

func TestGroupsForChannels(t *testing.T) {
	cases := []struct{ c, size, want int }{
		{16, 2, 8},
		{8, 2, 4},
		{4, 2, 2},
		{2, 2, 1},
		{1, 2, 1},
		{6, 4, 1}, // 6/4=1 -> 1 group
		{12, 4, 3},
	}
	for _, c := range cases {
		if got := GroupsForChannels(c.c, c.size); got != c.want {
			t.Errorf("GroupsForChannels(%d,%d) = %d, want %d", c.c, c.size, got, c.want)
		}
		if c.c%GroupsForChannels(c.c, c.size) != 0 {
			t.Errorf("GroupsForChannels(%d,%d) does not divide channels", c.c, c.size)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	l := NewLayerNorm("ln", 8)
	tensor.Uniform(l.Gamma.W, 0.5, 1.5, rng)
	tensor.Normal(l.Beta.W, 0.2, rng)
	x := tensor.New(3, 8)
	tensor.Normal(x, 2, rng)
	gradCheckLayer(t, l, x, 1e-4, rng)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	b := NewBatchNorm2D("bn", 3)
	tensor.Uniform(b.Gamma.W, 0.5, 1.5, rng)
	x := tensor.New(4, 3, 3, 3)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, b, x, 1e-4, rng)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	b := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 2, 2)
	tensor.Normal(x, 1, rng)
	for i := 0; i < 20; i++ {
		b.Forward(x, nil, nil)
	}
	b.Training = false
	y1, _ := b.Forward(x, nil, nil)
	// Shift input; with frozen stats the output must shift too (no renormalization).
	x2 := x.Clone()
	for i := range x2.Data {
		x2.Data[i] += 10
	}
	y2, _ := b.Forward(x2, nil, nil)
	diff := y2.Data[0] - y1.Data[0]
	if diff < 1 {
		t.Fatalf("eval-mode batchnorm renormalized the shift: diff=%v", diff)
	}
	b.Training = true
}

func TestMaxPoolFlattenGAPLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := tensor.New(2, 3, 4, 4)
	tensor.Normal(x, 1, rng)
	gradCheckLayer(t, &MaxPool2D{K: 2, Stride: 2}, x, 1e-5, rng)
	gradCheckLayer(t, &GlobalAvgPool{}, x, 1e-5, rng)
	gradCheckLayer(t, &Flatten{}, x, 1e-5, rng)
	gradCheckLayer(t, Identity{}, x, 1e-5, rng)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 1, 0.1, 0, 0, 0}, 2, 3)
	labels := []int{0, 2}
	var head SoftmaxCrossEntropy
	loss, dl := head.Loss(logits, labels)
	// Row 1: uniform softmax, -log(1/3).
	wantRow1 := math.Log(3)
	// Row 0: -log(exp(2)/(exp(2)+exp(1)+exp(0.1)))
	z := math.Exp(2) + math.Exp(1) + math.Exp(0.1)
	wantRow0 := math.Log(z) - 2
	if math.Abs(loss-(wantRow0+wantRow1)/2) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss, (wantRow0+wantRow1)/2)
	}
	// Gradient rows must each sum to zero (softmax minus one-hot).
	for s := 0; s < 2; s++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			sum += dl.At(s, j)
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d gradient sum %v != 0", s, sum)
		}
	}
	if Accuracy(logits, labels) != 1 {
		t.Fatalf("Accuracy = %d, want 1", Accuracy(logits, labels))
	}
}

func TestSoftmaxCrossEntropyNumericalGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	logits := tensor.New(3, 5)
	tensor.Normal(logits, 2, rng)
	labels := []int{1, 4, 0}
	var head SoftmaxCrossEntropy
	_, dl := head.Loss(logits, labels)
	const eps = 1e-6
	for k := 0; k < 10; k++ {
		i := rng.Intn(logits.Size())
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := head.Loss(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := head.Loss(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dl.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("dlogits[%d]: analytic %v vs numeric %v", i, dl.Data[i], num)
		}
	}
}

func TestMSELoss(t *testing.T) {
	y := tensor.FromSlice([]float64{1, 2}, 2)
	tt := tensor.FromSlice([]float64{0, 4}, 2)
	var m MSE
	loss, dl := m.Loss(y, tt)
	if math.Abs(loss-(0.5*1+0.5*4)/2) > 1e-12 {
		t.Fatalf("MSE loss = %v", loss)
	}
	if dl.Data[0] != 0.5 || dl.Data[1] != -1 {
		t.Fatalf("MSE grad = %v", dl.Data)
	}
}

// residualNet builds a two-block residual network on packets for stage tests.
func residualNet(rng *rand.Rand) *Network {
	conv1 := NewConv2D("c1", 2, 4, 3, 1, 1, false, rng)
	gn1 := NewGroupNorm("g1", 4, 2)
	conv2 := NewConv2D("c2", 4, 4, 3, 1, 1, false, rng)
	gn2 := NewGroupNorm("g2", 4, 2)
	convDown := NewConv2D("c3", 4, 8, 3, 2, 1, false, rng)
	gnDown := NewGroupNorm("g3", 8, 2)
	fc := NewDense("fc", 8, 3, true, rng)
	return NewNetwork(
		NewLayerStage("stem", conv1, gn1, ReLU{}),
		NewPushSkip("push1", nil),
		NewLayerStage("block1", conv2, gn2, ReLU{}),
		NewAddSkip("sum1"),
		NewPushSkip("push2", DownsampleShortcut{OutC: 8}),
		NewLayerStage("down", convDown, gnDown, ReLU{}),
		NewAddSkip("sum2"),
		NewLayerStage("head", &GlobalAvgPool{}, fc),
	)
}

func TestResidualNetworkForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net := residualNet(rng)
	x := tensor.New(2, 2, 8, 8)
	tensor.Normal(x, 1, rng)
	logits, _ := net.Forward(x)
	if logits.Shape[0] != 2 || logits.Shape[1] != 3 {
		t.Fatalf("logits shape %v, want [2,3]", logits.Shape)
	}
}

func TestResidualNetworkGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := residualNet(rng)
	x := tensor.New(1, 2, 8, 8)
	tensor.Normal(x, 1, rng)
	labels := []int{1}

	net.ZeroGrad()
	logits, ctxs := net.Forward(x)
	_, dl := net.Head.Loss(logits, labels)
	net.Backward(dl, ctxs)

	loss := func() float64 {
		lg, _ := net.Forward(x)
		l, _ := net.Head.Loss(lg, labels)
		return l
	}
	const eps = 1e-6
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
			if math.Abs(num-p.Grad().Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad().Data[i], num)
			}
		}
	}
}

func TestDownsampleShortcutAdjoint(t *testing.T) {
	// <Apply(x), r> must equal <x, Grad(r)>.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(3)
		outC := c + rng.Intn(3)
		x := tensor.New(1, c, 4, 4)
		tensor.Normal(x, 1, rng)
		d := DownsampleShortcut{OutC: outC}
		y := d.Apply(x, nil)
		r := tensor.New(y.Shape...)
		tensor.Normal(r, 1, rng)
		lhs := 0.0
		for i := range y.Data {
			lhs += y.Data[i] * r.Data[i]
		}
		dx := d.Grad(r, x.Shape, nil)
		rhs := 0.0
		for i := range x.Data {
			rhs += x.Data[i] * dx.Data[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParamSwapAndSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := NewDense("fc", 3, 2, false, rng)
	snap := d.Weight.Snapshot()
	pred := make([]float64, len(snap))
	for i := range pred {
		pred[i] = snap[i] + 1
	}
	old := d.Weight.SwapData(pred)
	if d.Weight.W.Data[0] != snap[0]+1 {
		t.Fatal("SwapData did not install new data")
	}
	d.Weight.SwapData(old)
	if d.Weight.W.Data[0] != snap[0] {
		t.Fatal("SwapData did not restore")
	}
	d.Weight.SetData(pred)
	if d.Weight.W.Data[0] != snap[0]+1 {
		t.Fatal("SetData failed")
	}
}

func TestNetworkSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	net := residualNet(rng)
	snap := net.SnapshotWeights()
	for _, p := range net.Params() {
		p.W.Fill(0)
	}
	net.RestoreWeights(snap)
	for i, p := range net.Params() {
		for j := range p.W.Data {
			if p.W.Data[j] != snap[i][j] {
				t.Fatal("RestoreWeights mismatch")
			}
		}
	}
	if NumParams(net.Params()) == 0 {
		t.Fatal("network has no parameters")
	}
}

func TestMultipleInFlightContexts(t *testing.T) {
	// The same layer must support interleaved forward/backward for
	// different samples — the property the pipeline engine depends on.
	rng := rand.New(rand.NewSource(26))
	d := NewDense("fc", 4, 4, true, rng)
	x1 := tensor.New(1, 4)
	x2 := tensor.New(1, 4)
	tensor.Normal(x1, 1, rng)
	tensor.Normal(x2, 1, rng)
	y1, c1 := d.Forward(x1, nil, nil)
	y2, c2 := d.Forward(x2, nil, nil)

	// Backward in reverse order; gradients must match running them separately.
	d.Weight.ZeroGrad()
	d.Bias.ZeroGrad()
	dy := tensor.New(1, 4)
	dy.Fill(1)
	d.Backward(dy, c2, nil, nil)
	d.Backward(dy, c1, nil, nil)
	combined := d.Weight.Grad().Clone()

	d.Weight.ZeroGrad()
	d.Bias.ZeroGrad()
	_, c1b := d.Forward(x1, nil, nil)
	d.Backward(dy, c1b, nil, nil)
	_, c2b := d.Forward(x2, nil, nil)
	d.Backward(dy, c2b, nil, nil)
	if !combined.AllClose(d.Weight.Grad(), 1e-12) {
		t.Fatal("interleaved contexts corrupt gradients")
	}
	_ = y1
	_ = y2
}

func TestEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	net := NewNetwork(NewLayerStage("fc", NewDense("fc", 4, 2, true, rng)))
	xs := []*tensor.Tensor{tensor.New(4, 4)}
	tensor.Normal(xs[0], 1, rng)
	labels := [][]int{{0, 1, 0, 1}}
	loss, acc := net.Evaluate(xs, labels)
	if loss <= 0 || acc < 0 || acc > 1 {
		t.Fatalf("Evaluate returned loss=%v acc=%v", loss, acc)
	}
}

// Flatten reshapes [N, ...] to [N, prod(...)].
type Flatten struct {
	// ctxFree pools pre-boxed []int shape contexts (see LayerStage.ctxsFree).
	ctxFree []any
}

// Name implements Layer.
func (*Flatten) Name() string { return "flatten" }

// Forward implements Layer; the context is the original shape.
func (l *Flatten) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	n := x.Shape[0]
	f := x.Size() / n
	y := ar.GetDT(x.DType(), n, f)
	y.CopyFrom(x)
	ctxBox, shape := popShapeBox(ar, &l.ctxFree, len(x.Shape))
	copy(shape, x.Shape)
	ar.Put(x)
	return y, ctxBox
}

// Backward implements Layer.
func (l *Flatten) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	shape := ctx.([]int)
	dx := ar.GetDT(dy.DType(), shape...)
	dx.CopyFrom(dy)
	ar.Put(dy)
	if ar != nil {
		l.ctxFree = append(l.ctxFree, ctx)
	}
	return dx
}

// ReleaseCtx implements Layer.
func (l *Flatten) ReleaseCtx(ctx any, ar *tensor.Arena) {
	if ar != nil {
		l.ctxFree = append(l.ctxFree, ctx)
	}
}

// Params implements Layer.
func (*Flatten) Params() []*Param { return nil }

// Identity passes its input through unchanged. Useful as a placeholder stage.
type Identity struct{}

// Name implements Layer.
func (Identity) Name() string { return "identity" }

// Forward implements Layer.
func (Identity) Forward(x *tensor.Tensor, _ *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	return x, nil
}

// Backward implements Layer.
func (Identity) Backward(dy *tensor.Tensor, _ any, _ *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	return dy
}

// ReleaseCtx implements Layer.
func (Identity) ReleaseCtx(any, *tensor.Arena) {}

// Params implements Layer.
func (Identity) Params() []*Param { return nil }

// MSE computes mean squared error 0.5*mean((y-t)^2) and its gradient; used
// by regression-style unit tests.
type MSE struct{}

// Loss returns the loss value and dL/dy for predictions y and targets t.
func (MSE) Loss(y, t *tensor.Tensor) (float64, *tensor.Tensor) {
	if y.Size() != t.Size() {
		panic("nn: MSE size mismatch")
	}
	if y.DType() != tensor.F64 || t.DType() != tensor.F64 {
		panic("nn: MSE is f64-only")
	}
	dl := tensor.New(y.Shape...)
	total := 0.0
	n := float64(y.Size())
	for i, v := range y.Data {
		d := v - t.Data[i]
		total += 0.5 * d * d
		dl.Data[i] = d / n
	}
	return total / n, dl
}

// NumParams returns the total element count of a parameter list.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.W.Size()
	}
	return n
}

// TestDenseDefersOnlyBatchOneOntoZeroGrad pins which gradient path runs.
// Only a batch-one dense backward onto a zero G keeps the rank-1 gradient
// pending. A batch of two, a second sample into the same G, and any conv
// backward accumulate into stored G. Each path reads back the bits of the
// GEMM onto a cleared G.
func TestDenseDefersOnlyBatchOneOntoZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := NewDense("fc", 5, 3, false, rng)
	x1, x2 := tensor.New(1, 5), tensor.New(2, 5)
	dy1, dy2 := tensor.New(1, 3), tensor.New(2, 3)
	for _, v := range []*tensor.Tensor{x1, x2, dy1, dy2} {
		tensor.Normal(v, 1, rng)
	}
	x1.Data[0], dy1.Data[1] = math.Copysign(0, -1), 1e-200
	x1.Data[2] = -1e-200
	gemm := func(pairs ...*tensor.Tensor) []float64 {
		g := tensor.New(3, 5)
		for i := 0; i < len(pairs); i += 2 {
			tensor.MatMulTransAAccInto(g, pairs[i], pairs[i+1])
		}
		return g.Data
	}
	for _, c := range []struct {
		name    string
		pairs   []*tensor.Tensor // (dy, x) per backward, in order
		pending bool
	}{
		{"N=1", []*tensor.Tensor{dy1, x1}, true},
		{"N=2", []*tensor.Tensor{dy2, x2}, false},
		{"N=1 twice", []*tensor.Tensor{dy1, x1, dy1, x1}, false},
	} {
		d.Weight.ZeroGrad()
		for i := 0; i < len(c.pairs); i += 2 {
			d.Backward(c.pairs[i].Clone(), c.pairs[i+1].Clone(), nil, nil)
		}
		if _, _, ok := d.Weight.PendingOuter(); ok != c.pending {
			t.Errorf("%s: pending rank-1 gradient %v, want %v", c.name, ok, c.pending)
		}
		want := gemm(c.pairs...)
		for i, g := range d.Weight.Grad().Data {
			if math.Float64bits(g) != math.Float64bits(want[i]) {
				t.Fatalf("%s: G[%d] = %v, GEMM %v", c.name, i, g, want[i])
			}
		}
	}
	conv := NewConv2D("cv", 2, 2, 3, 1, 1, true, rng)
	x := tensor.New(1, 2, 4, 4)
	tensor.Normal(x, 1, rng)
	y, ctx := conv.Forward(x, nil, nil)
	conv.Weight.ZeroGrad()
	conv.Backward(y, ctx, nil, nil)
	if _, _, ok := conv.Weight.PendingOuter(); ok {
		t.Error("conv backward left its weight gradient pending")
	}
}

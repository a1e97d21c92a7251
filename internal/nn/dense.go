package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b with W of shape [Out, In].
type Dense struct {
	In, Out  int
	Weight   *Param
	Bias     *Param // nil when constructed without bias
	nameText string
}

// NewDense constructs a Dense layer with He-normal weight initialization.
func NewDense(name string, in, out int, bias bool, rng *rand.Rand) *Dense {
	w := tensor.New(out, in)
	tensor.HeNormal(w, in, rng)
	d := &Dense{In: in, Out: out, Weight: NewParam(name+".w", w), nameText: name}
	if bias {
		d.Bias = NewParam(name+".b", tensor.New(out))
	}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.nameText }

// Forward implements Layer; the context is the input.
func (d *Dense) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: dense %s input %v, want [N,%d]", d.nameText, x.Shape, d.In))
	}
	n := x.Shape[0]
	y := ar.GetDT(x.DType(), n, d.Out)
	par.MatMulTransBInto(y, x, d.Weight.W) // [N,In]·[Out,In]ᵀ = [N,Out]
	if d.Bias != nil {
		if x.DType() == tensor.F32 {
			addToRows(y.Data32(), d.Bias.W.Data32(), n)
		} else {
			addToRows(y.Data, d.Bias.W.Data, n)
		}
	}
	return y, x
}

// addToRows adds b to each of the n rows of y ([n, len(b)]) — the bias of a
// dense forward.
func addToRows[T tensor.Elem](y, b []T, n int) {
	out := len(b)
	for s := 0; s < n; s++ {
		row := y[s*out : (s+1)*out]
		for j := range row {
			row[j] += b[j]
		}
	}
}

// sumRowsInto adds each of the n rows of dy ([n, len(g)]) into g, in row
// order — the bias gradient of a dense backward.
func sumRowsInto[T tensor.Elem](g, dy []T, n int) {
	out := len(g)
	for s := 0; s < n; s++ {
		row := dy[s*out : (s+1)*out]
		for j := range g {
			g[j] += row[j]
		}
	}
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	x := ctx.(*tensor.Tensor)
	// dW += dyᵀ·x → [Out, In], accumulated directly into the gradient. At
	// batch one onto a zero G that is the outer product dy ⊗ x: the weight
	// keeps the two factors, and the optimizer forms each element inside
	// its update instead of this layer running a GEMM into G.
	if dy.Shape[0] != 1 || !d.Weight.deferOuter(dy, x) {
		par.MatMulTransAAccInto(d.Weight.Grad(), dy, x)
	}
	if d.Bias != nil {
		if dy.DType() == tensor.F32 {
			sumRowsInto(d.Bias.Grad().Data32(), dy.Data32(), dy.Shape[0])
		} else {
			sumRowsInto(d.Bias.Grad().Data, dy.Data, dy.Shape[0])
		}
	}
	// dx = dy·W → [N, In]
	dx := ar.GetDT(dy.DType(), dy.Shape[0], d.In)
	par.MatMulInto(dx, dy, d.Weight.W)
	ar.Put(dy, x)
	return dx
}

// ReleaseCtx implements Layer.
func (d *Dense) ReleaseCtx(ctx any, ar *tensor.Arena) {
	ar.Put(ctx.(*tensor.Tensor))
}

// Params implements Layer.
func (d *Dense) Params() []*Param {
	if d.Bias == nil {
		return []*Param{d.Weight}
	}
	return []*Param{d.Weight, d.Bias}
}

// Conv2D is a 2-D convolution layer with weights [F, C, K, K].
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	Weight                    *Param
	Bias                      *Param // nil when constructed without bias
	nameText                  string
	ctxFree                   []*convCtx
}

type convCtx struct {
	cols   []*tensor.Tensor
	xShape []int
}

// NewConv2D constructs a Conv2D layer with He-normal initialization.
func NewConv2D(name string, inC, outC, k, stride, pad int, bias bool, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC, k, k)
	tensor.HeNormal(w, inC*k*k, rng)
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: NewParam(name+".w", w), nameText: name}
	if bias {
		c.Bias = NewParam(name+".b", tensor.New(outC))
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.nameText }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: conv %s input %v, want [N,%d,H,W]", c.nameText, x.Shape, c.InC))
	}
	var b *tensor.Tensor
	if c.Bias != nil {
		b = c.Bias.W
	}
	cc := popCtx(ar, &c.ctxFree)
	if cc == nil {
		cc = &convCtx{}
	}
	var y *tensor.Tensor
	y, cc.cols = par.ConvForward(ar, x, c.Weight.W, b, c.Stride, c.Pad, cc.cols)
	cc.xShape = resize(cc.xShape, 4)
	copy(cc.xShape, x.Shape)
	ar.Put(x) // the backward pass needs only the im2col matrices
	return y, cc
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	cc := ctx.(*convCtx)
	var db *tensor.Tensor
	if c.Bias != nil {
		db = c.Bias.Grad()
	}
	dx := par.ConvBackward(ar, dy, c.Weight.W, cc.cols, c.Weight.Grad(), db, cc.xShape, c.Stride, c.Pad)
	ar.Put(dy)
	ar.Put(cc.cols...)
	if ar != nil {
		c.ctxFree = append(c.ctxFree, cc)
	}
	return dx
}

// ReleaseCtx implements Layer.
func (c *Conv2D) ReleaseCtx(ctx any, ar *tensor.Arena) {
	cc := ctx.(*convCtx)
	ar.Put(cc.cols...)
	if ar != nil {
		c.ctxFree = append(c.ctxFree, cc)
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias == nil {
		return []*Param{c.Weight}
	}
	return []*Param{c.Weight, c.Bias}
}

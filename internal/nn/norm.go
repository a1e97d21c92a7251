package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// normEps is the variance epsilon shared by all normalization layers.
const normEps = 1e-5

// GroupNorm normalizes [N,C,H,W] inputs over channel groups, following
// Wu & He (2018). The paper replaces BatchNorm with GroupNorm because the
// per-worker batch size is one. Gamma/beta are per channel.
type GroupNorm struct {
	C, Groups int
	Gamma     *Param
	Beta      *Param
	nameText  string
	ctxFree   []*groupNormCtx
}

type groupNormCtx struct {
	xhat   *tensor.Tensor
	invStd []float64 // per (sample, group)
	xShape []int
}

// NewGroupNorm builds a GroupNorm layer. groups must divide c.
// Following the paper's setup (group size two at the first layer, scaled by
// width), callers typically use GroupsForChannels.
func NewGroupNorm(name string, c, groups int) *GroupNorm {
	if groups <= 0 || c%groups != 0 {
		panic(fmt.Sprintf("nn: groupnorm %s: groups %d must divide channels %d", name, groups, c))
	}
	g := &GroupNorm{C: c, Groups: groups, nameText: name}
	gamma := tensor.New(c)
	gamma.Fill(1)
	g.Gamma = NewParam(name+".gamma", gamma)
	g.Beta = NewParam(name+".beta", tensor.New(c))
	return g
}

// GroupsForChannels returns the group count for a channel width given an
// initial group size (the paper uses an initial group size of two).
func GroupsForChannels(c, groupSize int) int {
	if groupSize <= 0 || c < groupSize {
		return 1
	}
	g := c / groupSize
	for c%g != 0 {
		g--
	}
	return g
}

// Name implements Layer.
func (g *GroupNorm) Name() string { return g.nameText }

// Forward implements Layer.
func (g *GroupNorm) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	if len(x.Shape) != 4 || x.Shape[1] != g.C {
		panic(fmt.Sprintf("nn: groupnorm %s input %v, want [N,%d,H,W]", g.nameText, x.Shape, g.C))
	}
	if x.DType() == tensor.F32 {
		return groupNormForward[float32](g, x, ar)
	}
	return groupNormForward[float64](g, x, ar)
}

// meanInvStd returns the mean of seg and 1/sqrt(var+eps), accumulated in
// float64 at both dtypes: the reductions span up to cg·H·W elements and are
// the numerically fragile part of a normalizer (DESIGN.md §15).
func meanInvStd[T tensor.Elem](seg []T) (mu, invStd float64) {
	for _, v := range seg {
		mu += float64(v)
	}
	mu /= float64(len(seg))
	va := 0.0
	for _, v := range seg {
		d := float64(v) - mu
		va += d * d
	}
	va /= float64(len(seg))
	return mu, 1.0 / math.Sqrt(va+normEps)
}

// groupNormForward is GroupNorm.Forward at T. Statistics come from
// meanInvStd; the per-element normalize/scale work and the stored xhat stay
// in T, and invStd is kept at float64 in the context.
func groupNormForward[T tensor.Elem](g *GroupNorm, x *tensor.Tensor, ar *tensor.Arena) (*tensor.Tensor, any) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cg := c / g.Groups
	m := cg * h * w
	y := ar.GetDT(x.DType(), x.Shape...)
	cc := popCtx(ar, &g.ctxFree)
	if cc == nil {
		cc = &groupNormCtx{}
	}
	cc.xhat = ar.GetDT(x.DType(), x.Shape...)
	cc.invStd = resize(cc.invStd, n*g.Groups)
	cc.xShape = resize(cc.xShape, 4)
	copy(cc.xShape, x.Shape)
	xd, yd, xhd := tensor.DataOf[T](x), tensor.DataOf[T](y), tensor.DataOf[T](cc.xhat)
	gw, bw := tensor.DataOf[T](g.Gamma.W), tensor.DataOf[T](g.Beta.W)
	for s := 0; s < n; s++ {
		for gr := 0; gr < g.Groups; gr++ {
			base := (s*c + gr*cg) * h * w
			seg := xd[base : base+m]
			mu, is := meanInvStd(seg)
			cc.invStd[s*g.Groups+gr] = is
			muT, isT := T(mu), T(is)
			for i, v := range seg {
				xh := (v - muT) * isT
				xhd[base+i] = xh
				ch := gr*cg + i/(h*w)
				yd[base+i] = gw[ch]*xh + bw[ch]
			}
		}
	}
	ar.Put(x)
	return y, cc
}

// Backward implements Layer.
func (g *GroupNorm) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	cc := ctx.(*groupNormCtx)
	var dx *tensor.Tensor
	if dy.DType() == tensor.F32 {
		dx = groupNormBackward[float32](g, dy, cc, ar)
	} else {
		dx = groupNormBackward[float64](g, dy, cc, ar)
	}
	ar.Put(dy, cc.xhat)
	if ar != nil {
		cc.xhat = nil
		g.ctxFree = append(g.ctxFree, cc)
	}
	return dx
}

// groupNormBackward is GroupNorm.Backward at T: parameter gradients and the
// element-wise terms in T, the two group means accumulated in float64.
func groupNormBackward[T tensor.Elem](g *GroupNorm, dy *tensor.Tensor, cc *groupNormCtx, ar *tensor.Arena) *tensor.Tensor {
	n, c, h, w := cc.xShape[0], cc.xShape[1], cc.xShape[2], cc.xShape[3]
	cg := c / g.Groups
	m := cg * h * w
	dx := ar.GetDT(dy.DType(), cc.xShape...)
	dyd, xhd, dxd := tensor.DataOf[T](dy), tensor.DataOf[T](cc.xhat), tensor.DataOf[T](dx)
	gw := tensor.DataOf[T](g.Gamma.W)
	gg, bg := tensor.DataOf[T](g.Gamma.Grad()), tensor.DataOf[T](g.Beta.Grad())
	for s := 0; s < n; s++ {
		for gr := 0; gr < g.Groups; gr++ {
			base := (s*c + gr*cg) * h * w
			// Accumulate dgamma/dbeta and the two group means needed for dx.
			sumDxh, sumDxhXh := 0.0, 0.0
			for i := 0; i < m; i++ {
				ch := gr*cg + i/(h*w)
				d := dyd[base+i]
				xh := xhd[base+i]
				gg[ch] += d * xh
				bg[ch] += d
				dxh := d * gw[ch]
				sumDxh += float64(dxh)
				sumDxhXh += float64(dxh) * float64(xh)
			}
			meanDxh := T(sumDxh / float64(m))
			meanDxhXh := T(sumDxhXh / float64(m))
			is := T(cc.invStd[s*g.Groups+gr])
			for i := 0; i < m; i++ {
				ch := gr*cg + i/(h*w)
				dxh := dyd[base+i] * gw[ch]
				xh := xhd[base+i]
				dxd[base+i] = is * (dxh - meanDxh - xh*meanDxhXh)
			}
		}
	}
	return dx
}

// ReleaseCtx implements Layer.
func (g *GroupNorm) ReleaseCtx(ctx any, ar *tensor.Arena) {
	cc := ctx.(*groupNormCtx)
	ar.Put(cc.xhat)
	if ar != nil {
		cc.xhat = nil
		g.ctxFree = append(g.ctxFree, cc)
	}
}

// Params implements Layer.
func (g *GroupNorm) Params() []*Param { return []*Param{g.Gamma, g.Beta} }

// LayerNorm normalizes each row of a [N,F] tensor. It plays the role of
// GroupNorm for the MLP pipelines used in the fast sweep experiments.
type LayerNorm struct {
	F        int
	Gamma    *Param
	Beta     *Param
	nameText string
	ctxFree  []*layerNormCtx
}

type layerNormCtx struct {
	xhat   *tensor.Tensor
	invStd []float64
}

// NewLayerNorm builds a LayerNorm over f features.
func NewLayerNorm(name string, f int) *LayerNorm {
	l := &LayerNorm{F: f, nameText: name}
	gamma := tensor.New(f)
	gamma.Fill(1)
	l.Gamma = NewParam(name+".gamma", gamma)
	l.Beta = NewParam(name+".beta", tensor.New(f))
	return l
}

// Name implements Layer.
func (l *LayerNorm) Name() string { return l.nameText }

// Forward implements Layer.
func (l *LayerNorm) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	if len(x.Shape) != 2 || x.Shape[1] != l.F {
		panic(fmt.Sprintf("nn: layernorm %s input %v, want [N,%d]", l.nameText, x.Shape, l.F))
	}
	if x.DType() == tensor.F32 {
		return layerNormForward[float32](l, x, ar)
	}
	return layerNormForward[float64](l, x, ar)
}

// layerNormForward is LayerNorm.Forward at T, with groupNormForward's
// precision split.
func layerNormForward[T tensor.Elem](l *LayerNorm, x *tensor.Tensor, ar *tensor.Arena) (*tensor.Tensor, any) {
	n, f := x.Shape[0], x.Shape[1]
	y := ar.GetDT(x.DType(), n, f)
	cc := popCtx(ar, &l.ctxFree)
	if cc == nil {
		cc = &layerNormCtx{}
	}
	cc.xhat = ar.GetDT(x.DType(), n, f)
	cc.invStd = resize(cc.invStd, n)
	xd, yd, xhd := tensor.DataOf[T](x), tensor.DataOf[T](y), tensor.DataOf[T](cc.xhat)
	gw, bw := tensor.DataOf[T](l.Gamma.W), tensor.DataOf[T](l.Beta.W)
	for s := 0; s < n; s++ {
		seg := xd[s*f : (s+1)*f]
		mu, is := meanInvStd(seg)
		cc.invStd[s] = is
		muT, isT := T(mu), T(is)
		for i, v := range seg {
			xh := (v - muT) * isT
			xhd[s*f+i] = xh
			yd[s*f+i] = gw[i]*xh + bw[i]
		}
	}
	ar.Put(x)
	return y, cc
}

// Backward implements Layer.
func (l *LayerNorm) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	cc := ctx.(*layerNormCtx)
	var dx *tensor.Tensor
	if dy.DType() == tensor.F32 {
		dx = layerNormBackward[float32](l, dy, cc, ar)
	} else {
		dx = layerNormBackward[float64](l, dy, cc, ar)
	}
	ar.Put(dy, cc.xhat)
	if ar != nil {
		cc.xhat = nil
		l.ctxFree = append(l.ctxFree, cc)
	}
	return dx
}

// layerNormBackward is LayerNorm.Backward at T, with groupNormBackward's
// precision split.
func layerNormBackward[T tensor.Elem](l *LayerNorm, dy *tensor.Tensor, cc *layerNormCtx, ar *tensor.Arena) *tensor.Tensor {
	n, f := dy.Shape[0], dy.Shape[1]
	dx := ar.GetDT(dy.DType(), n, f)
	dyd, xhd, dxd := tensor.DataOf[T](dy), tensor.DataOf[T](cc.xhat), tensor.DataOf[T](dx)
	gw := tensor.DataOf[T](l.Gamma.W)
	gg, bg := tensor.DataOf[T](l.Gamma.Grad()), tensor.DataOf[T](l.Beta.Grad())
	for s := 0; s < n; s++ {
		sumDxh, sumDxhXh := 0.0, 0.0
		for i := 0; i < f; i++ {
			d := dyd[s*f+i]
			xh := xhd[s*f+i]
			gg[i] += d * xh
			bg[i] += d
			dxh := d * gw[i]
			sumDxh += float64(dxh)
			sumDxhXh += float64(dxh) * float64(xh)
		}
		meanDxh := T(sumDxh / float64(f))
		meanDxhXh := T(sumDxhXh / float64(f))
		is := T(cc.invStd[s])
		for i := 0; i < f; i++ {
			dxh := dyd[s*f+i] * gw[i]
			xh := xhd[s*f+i]
			dxd[s*f+i] = is * (dxh - meanDxh - xh*meanDxhXh)
		}
	}
	return dx
}

// ReleaseCtx implements Layer.
func (l *LayerNorm) ReleaseCtx(ctx any, ar *tensor.Arena) {
	cc := ctx.(*layerNormCtx)
	ar.Put(cc.xhat)
	if ar != nil {
		cc.xhat = nil
		l.ctxFree = append(l.ctxFree, cc)
	}
}

// Params implements Layer.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// BatchNorm2D is standard batch normalization over [N,C,H,W]. It exists as
// the reference the paper compares against (Appendix A discussion); it needs
// N > 1 to be meaningful and is unusable at the paper's batch size of one.
type BatchNorm2D struct {
	C        int
	Momentum float64
	Gamma    *Param
	Beta     *Param
	// Running statistics used at evaluation time.
	RunMean, RunVar []float64
	Training        bool
	nameText        string
	ctxFree         []*batchNormCtx
}

type batchNormCtx struct {
	xhat   *tensor.Tensor
	invStd []float64
	xShape []int
}

// NewBatchNorm2D builds a BatchNorm layer with running-stat momentum 0.9.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	b := &BatchNorm2D{C: c, Momentum: 0.9, Training: true, nameText: name}
	gamma := tensor.New(c)
	gamma.Fill(1)
	b.Gamma = NewParam(name+".gamma", gamma)
	b.Beta = NewParam(name+".beta", tensor.New(c))
	b.RunMean = make([]float64, c)
	b.RunVar = make([]float64, c)
	for i := range b.RunVar {
		b.RunVar[i] = 1
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.nameText }

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != b.C {
		panic(fmt.Sprintf("nn: batchnorm %s input %v, want C=%d", b.nameText, x.Shape, b.C))
	}
	if x.DType() != tensor.F64 {
		panic("nn: batchnorm " + b.nameText + " is the f64 reference layer; use GroupNorm for f32 models")
	}
	m := n * h * w
	y := ar.Get(x.Shape...)
	cc := popCtx(ar, &b.ctxFree)
	if cc == nil {
		cc = &batchNormCtx{}
	}
	cc.xhat = ar.Get(x.Shape...)
	cc.invStd = resize(cc.invStd, c)
	cc.xShape = resize(cc.xShape, 4)
	copy(cc.xShape, x.Shape)
	for ch := 0; ch < c; ch++ {
		var mu, va float64
		if b.Training {
			for s := 0; s < n; s++ {
				base := (s*c + ch) * h * w
				for k := 0; k < h*w; k++ {
					mu += x.Data[base+k]
				}
			}
			mu /= float64(m)
			for s := 0; s < n; s++ {
				base := (s*c + ch) * h * w
				for k := 0; k < h*w; k++ {
					d := x.Data[base+k] - mu
					va += d * d
				}
			}
			va /= float64(m)
			b.RunMean[ch] = b.Momentum*b.RunMean[ch] + (1-b.Momentum)*mu
			b.RunVar[ch] = b.Momentum*b.RunVar[ch] + (1-b.Momentum)*va
		} else {
			mu, va = b.RunMean[ch], b.RunVar[ch]
		}
		is := 1.0 / math.Sqrt(va+normEps)
		cc.invStd[ch] = is
		for s := 0; s < n; s++ {
			base := (s*c + ch) * h * w
			for k := 0; k < h*w; k++ {
				xh := (x.Data[base+k] - mu) * is
				cc.xhat.Data[base+k] = xh
				y.Data[base+k] = b.Gamma.W.Data[ch]*xh + b.Beta.W.Data[ch]
			}
		}
	}
	ar.Put(x)
	return y, cc
}

// Backward implements Layer (training-mode gradient).
func (b *BatchNorm2D) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	cc := ctx.(*batchNormCtx)
	n, c, h, w := cc.xShape[0], cc.xShape[1], cc.xShape[2], cc.xShape[3]
	m := n * h * w
	dx := ar.Get(cc.xShape...)
	gg, bg := b.Gamma.Grad().Data, b.Beta.Grad().Data
	for ch := 0; ch < c; ch++ {
		sumDxh, sumDxhXh := 0.0, 0.0
		for s := 0; s < n; s++ {
			base := (s*c + ch) * h * w
			for k := 0; k < h*w; k++ {
				d := dy.Data[base+k]
				xh := cc.xhat.Data[base+k]
				gg[ch] += d * xh
				bg[ch] += d
				dxh := d * b.Gamma.W.Data[ch]
				sumDxh += dxh
				sumDxhXh += dxh * xh
			}
		}
		meanDxh := sumDxh / float64(m)
		meanDxhXh := sumDxhXh / float64(m)
		for s := 0; s < n; s++ {
			base := (s*c + ch) * h * w
			for k := 0; k < h*w; k++ {
				dxh := dy.Data[base+k] * b.Gamma.W.Data[ch]
				xh := cc.xhat.Data[base+k]
				dx.Data[base+k] = cc.invStd[ch] * (dxh - meanDxh - xh*meanDxhXh)
			}
		}
	}
	ar.Put(dy, cc.xhat)
	if ar != nil {
		cc.xhat = nil
		b.ctxFree = append(b.ctxFree, cc)
	}
	return dx
}

// ReleaseCtx implements Layer.
func (b *BatchNorm2D) ReleaseCtx(ctx any, ar *tensor.Arena) {
	cc := ctx.(*batchNormCtx)
	ar.Put(cc.xhat)
	if ar != nil {
		cc.xhat = nil
		b.ctxFree = append(b.ctxFree, cc)
	}
}

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

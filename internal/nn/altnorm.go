package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// FRN is Filter Response Normalization with a Thresholded Linear Unit
// (Singh & Krishnan 2019), one of the batch-independent normalizers the
// paper's Section 5 suggests may boost delay tolerance. Per sample and
// channel it normalizes by the mean squared activation (no mean
// subtraction) and applies z = max(γ·x̂ + β, τ) with a learned threshold.
type FRN struct {
	C                int
	Gamma, Beta, Tau *Param
	nameText         string
}

type frnCtx struct {
	xhat   *tensor.Tensor // x · r
	r      []float64      // per (sample, channel) inverse RMS
	y      *tensor.Tensor // pre-TLU output
	xShape []int
}

// NewFRN builds an FRN+TLU layer for c channels.
func NewFRN(name string, c int) *FRN {
	f := &FRN{C: c, nameText: name}
	gamma := tensor.New(c)
	gamma.Fill(1)
	f.Gamma = NewParam(name+".gamma", gamma)
	f.Beta = NewParam(name+".beta", tensor.New(c))
	tau := tensor.New(c)
	tau.Fill(-1) // start permissive (≈ identity TLU)
	f.Tau = NewParam(name+".tau", tau)
	return f
}

// Name implements Layer.
func (f *FRN) Name() string { return f.nameText }

// Forward implements Layer.
func (f *FRN) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	if len(x.Shape) != 4 || x.Shape[1] != f.C {
		panic(fmt.Sprintf("nn: FRN %s input %v, want [N,%d,H,W]", f.nameText, x.Shape, f.C))
	}
	requireF64(f.nameText, x)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	m := h * w
	// Fully overwritten below, so plain (unzeroed) Gets suffice.
	xhat := ar.Get(x.Shape...)
	y := ar.Get(x.Shape...)
	z := ar.Get(x.Shape...)
	rs := make([]float64, n*c)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * m
			nu2 := 0.0
			for k := 0; k < m; k++ {
				v := x.Data[base+k]
				nu2 += v * v
			}
			nu2 /= float64(m)
			r := 1.0 / math.Sqrt(nu2+normEps)
			rs[s*c+ch] = r
			g, b, tau := f.Gamma.W.Data[ch], f.Beta.W.Data[ch], f.Tau.W.Data[ch]
			for k := 0; k < m; k++ {
				xh := x.Data[base+k] * r
				xhat.Data[base+k] = xh
				yv := g*xh + b
				y.Data[base+k] = yv
				if yv > tau {
					z.Data[base+k] = yv
				} else {
					z.Data[base+k] = tau
				}
			}
		}
	}
	shape := make([]int, 4)
	copy(shape, x.Shape)
	ar.Put(x)
	return z, &frnCtx{xhat: xhat, r: rs, y: y, xShape: shape}
}

// Backward implements Layer.
func (f *FRN) Backward(dz *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	cc := ctx.(*frnCtx)
	n, c, h, w := cc.xShape[0], cc.xShape[1], cc.xShape[2], cc.xShape[3]
	m := h * w
	dx := ar.Get(cc.xShape...)
	scratch := ar.Get(m)
	dxh := scratch.Data
	gg, bg, tg := f.Gamma.Grad().Data, f.Beta.Grad().Data, f.Tau.Grad().Data
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * m
			tau := f.Tau.W.Data[ch]
			g := f.Gamma.W.Data[ch]
			// TLU gradient routing, then the normalization chain rule:
			// dx = r·(dx̂ − x̂·mean(dx̂·x̂)).
			sumDxhXh := 0.0
			for k := range dxh {
				dxh[k] = 0
			}
			for k := 0; k < m; k++ {
				d := dz.Data[base+k]
				if cc.y.Data[base+k] > tau {
					gg[ch] += d * cc.xhat.Data[base+k]
					bg[ch] += d
					dxh[k] = d * g
					sumDxhXh += dxh[k] * cc.xhat.Data[base+k]
				} else {
					tg[ch] += d
				}
			}
			meanDxhXh := sumDxhXh / float64(m)
			r := cc.r[s*c+ch]
			for k := 0; k < m; k++ {
				dx.Data[base+k] = r * (dxh[k] - cc.xhat.Data[base+k]*meanDxhXh)
			}
		}
	}
	ar.Put(dz, cc.xhat, cc.y, scratch)
	return dx
}

// ReleaseCtx implements Layer.
func (f *FRN) ReleaseCtx(ctx any, ar *tensor.Arena) {
	cc := ctx.(*frnCtx)
	ar.Put(cc.xhat, cc.y)
}

// Params implements Layer.
func (f *FRN) Params() []*Param { return []*Param{f.Gamma, f.Beta, f.Tau} }

// WSConv2D is a convolution with Weight Standardization (Qiao et al. 2019):
// each filter is normalized to zero mean and unit variance before use, with
// gradients chained through the standardization. The paper's Section 5
// lists it among the small-batch normalization alternatives.
type WSConv2D struct {
	InC, OutC, K, Stride, Pad int
	// Raw is the learnable (unstandardized) weight.
	Raw      *Param
	Bias     *Param
	nameText string
}

type wsConvCtx struct {
	convCtx any
	what    *tensor.Tensor // standardized weights Ŵ used at forward
	invStd  []float64      // per filter
	scratch *Conv2D
}

// NewWSConv2D builds a weight-standardized convolution.
func NewWSConv2D(name string, inC, outC, k, stride, pad int, bias bool, rng *rand.Rand) *WSConv2D {
	w := tensor.New(outC, inC, k, k)
	tensor.HeNormal(w, inC*k*k, rng)
	c := &WSConv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Raw: NewParam(name+".w", w), nameText: name}
	if bias {
		c.Bias = NewParam(name+".b", tensor.New(outC))
	}
	return c
}

// Name implements Layer.
func (c *WSConv2D) Name() string { return c.nameText }

// standardize returns Ŵ (drawn from ar) and the per-filter inverse std.
func (c *WSConv2D) standardize(ar *tensor.Arena) (*tensor.Tensor, []float64) {
	fan := c.InC * c.K * c.K
	what := ar.Get(c.OutC, c.InC, c.K, c.K)
	inv := make([]float64, c.OutC)
	for f := 0; f < c.OutC; f++ {
		seg := c.Raw.W.Data[f*fan : (f+1)*fan]
		mu := 0.0
		for _, v := range seg {
			mu += v
		}
		mu /= float64(fan)
		va := 0.0
		for _, v := range seg {
			va += (v - mu) * (v - mu)
		}
		va /= float64(fan)
		is := 1.0 / math.Sqrt(va+normEps)
		inv[f] = is
		out := what.Data[f*fan : (f+1)*fan]
		for i, v := range seg {
			out[i] = (v - mu) * is
		}
	}
	return what, inv
}

// Forward implements Layer.
func (c *WSConv2D) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	requireF64(c.nameText, x)
	what, inv := c.standardize(ar)
	var b *tensor.Tensor
	if c.Bias != nil {
		b = c.Bias.W
	}
	y, cols := par.ConvForward(ar, x, what, b, c.Stride, c.Pad, nil)
	shape := make([]int, 4)
	copy(shape, x.Shape)
	ar.Put(x)
	return y, &wsConvCtx{
		convCtx: &convCtx{cols: cols, xShape: shape},
		what:    what,
		invStd:  inv,
	}
}

// Backward implements Layer.
func (c *WSConv2D) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	cc := ctx.(*wsConvCtx)
	inner := cc.convCtx.(*convCtx)
	var db *tensor.Tensor
	if c.Bias != nil {
		db = c.Bias.Grad()
	}
	dWhat := ar.GetZeroed(c.OutC, c.InC, c.K, c.K)
	dx := par.ConvBackward(ar, dy, cc.what, inner.cols, dWhat, db, inner.xShape, c.Stride, c.Pad)
	// Chain through the standardization: like LayerNorm over each filter.
	fan := c.InC * c.K * c.K
	rg := c.Raw.Grad().Data
	for f := 0; f < c.OutC; f++ {
		dseg := dWhat.Data[f*fan : (f+1)*fan]
		wseg := cc.what.Data[f*fan : (f+1)*fan]
		sumD, sumDW := 0.0, 0.0
		for i := range dseg {
			sumD += dseg[i]
			sumDW += dseg[i] * wseg[i]
		}
		meanD := sumD / float64(fan)
		meanDW := sumDW / float64(fan)
		is := cc.invStd[f]
		gseg := rg[f*fan : (f+1)*fan]
		for i := range dseg {
			gseg[i] += is * (dseg[i] - meanD - wseg[i]*meanDW)
		}
	}
	ar.Put(dy, dWhat, cc.what)
	ar.Put(inner.cols...)
	return dx
}

// ReleaseCtx implements Layer.
func (c *WSConv2D) ReleaseCtx(ctx any, ar *tensor.Arena) {
	cc := ctx.(*wsConvCtx)
	inner := cc.convCtx.(*convCtx)
	ar.Put(cc.what)
	ar.Put(inner.cols...)
}

// Params implements Layer.
func (c *WSConv2D) Params() []*Param {
	if c.Bias == nil {
		return []*Param{c.Raw}
	}
	return []*Param{c.Raw, c.Bias}
}

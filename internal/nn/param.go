// Package nn implements the neural-network layers and pipeline-stage
// plumbing used by the pipelined-backpropagation engine. Layers are
// functional: Forward returns an opaque context that Backward consumes, so
// any number of samples can be in flight through a layer at once — the
// property the fine-grained pipeline engine (internal/core) relies on.
package nn

import "repro/internal/tensor"

// Param is a learnable parameter with its gradient accumulator G.
//
// G is reached only through methods, because it is in one of three states:
// stored (its storage holds the value), pending zero, or pending 0 + a⊗b —
// a rank-1 gradient whose factors the param owns (see PendingOuter). Backward
// passes accumulate into Grad(), which first materialises a pending value.
// A dense layer at batch one instead hands its outer product dy ⊗ x to a
// pending-zero G (deferOuter), and the optimizers form each element inside
// their update. An optimizer step leaves G pending zero, or holding ŵ after
// a fused step-and-predict; ZeroGrad makes it pending zero in O(1).
type Param struct {
	Name string
	W    *tensor.Tensor
	g    *tensor.Tensor
	gst  gradState
	// outA and outB hold the factors of a pending rank-1 G. They are sized
	// on the first deferral and reused for every later one.
	outA, outB *tensor.Tensor
}

// gradState says where G's value lives.
type gradState uint8

const (
	gradStored gradState = iota // g's storage holds the value
	gradZero                    // logically zero; g's storage is stale
	gradOuter                   // logically 0 + outA⊗outB; g's storage is stale
)

// NewParam allocates a parameter and matching zero gradient (same dtype as
// the weights).
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, g: tensor.NewDT(w.DType(), w.Shape...)}
}

// DType reports the parameter's element type.
func (p *Param) DType() tensor.DType { return p.W.DType() }

// Snapshot returns a copy of the current weight data as float64 — the
// canonical exchange format regardless of the parameter's dtype, so
// checkpoints, weight-sync policies and eval snapshots work unchanged for
// f32 models (f32→f64 is exact).
func (p *Param) Snapshot() []float64 {
	return p.W.Float64s(make([]float64, 0, p.W.Size()))
}

// SetData copies float64 data into the weight tensor, converting to the
// parameter's dtype. Lengths must match. For f32 parameters each value is
// the direct float32 cast — this is where every checkpoint restore narrows
// the canonical f64 snapshot to an f32 network.
func (p *Param) SetData(data []float64) {
	if len(data) != p.W.Size() {
		panic("nn: SetData length mismatch for " + p.Name)
	}
	p.W.SetFloat64s(0, data)
}

// SwapData exchanges the underlying weight storage with data and returns the
// previous storage. This is how the engine runs a forward pass under
// predicted or stashed weights without copying twice. f64 parameters only —
// f32 installs go through SwapData32.
func (p *Param) SwapData(data []float64) []float64 {
	if p.W.DType() != tensor.F64 {
		panic("nn: SwapData on non-f64 param " + p.Name)
	}
	if len(data) != len(p.W.Data) {
		panic("nn: SwapData length mismatch for " + p.Name)
	}
	old := p.W.Data
	p.W.Data = data
	return old
}

// SwapData32 is SwapData for f32 parameters — the install primitive of the
// f32 inference WeightSets.
func (p *Param) SwapData32(data []float32) []float32 {
	if p.W.DType() != tensor.F32 {
		panic("nn: SwapData32 on non-f32 param " + p.Name)
	}
	old := p.W.Data32()
	if len(data) != len(old) {
		panic("nn: SwapData32 length mismatch for " + p.Name)
	}
	p.W.SetData32(data)
	return old
}

// ConvertTo converts the parameter to dt in place: the weights by direct
// value cast, G to a fresh zero accumulator at the new dtype. A no-op when
// the dtype already matches.
func (p *Param) ConvertTo(dt tensor.DType) {
	if p.W.DType() == dt {
		return
	}
	p.W = p.W.ConvertTo(dt)
	p.g = tensor.NewDT(dt, p.g.Shape...)
	p.gst = gradStored
	p.outA, p.outB = nil, nil
}

// ZeroGrad clears the gradient accumulator in O(1): G becomes pending zero,
// and the next Grad clears the storage only if someone reads it.
func (p *Param) ZeroGrad() { p.gst = gradZero }

// Grad materialises G and returns its storage, which then holds the value.
// Every reader and accumulator of G goes through here (or PendingOuter).
// On a stored G it only reads, so peers may call it on a G they share under
// a lock once its owner has materialised it.
func (p *Param) Grad() *tensor.Tensor {
	if p.gst != gradStored {
		p.materialise()
	}
	return p.g
}

func (p *Param) materialise() {
	switch p.gst {
	case gradZero:
		p.g.Zero()
	case gradOuter:
		if p.g.DType() == tensor.F32 {
			outerInto(p.g.Data32(), p.outA.Data32(), p.outB.Data32())
		} else {
			outerInto(p.g.Data, p.outA.Data, p.outB.Data)
		}
	}
	p.gst = gradStored
}

// GradForOverwrite returns G's storage for a caller that writes every
// element of it (weight prediction into G): a pending value is discarded
// rather than materialised, so no clear or outer product runs first.
func (p *Param) GradForOverwrite() *tensor.Tensor {
	p.gst = gradStored
	return p.g
}

// PendingOuter reports whether G is pending 0 + a⊗b and returns the factors:
// a is the row vector (W's first dimension), b the column vector (the rest),
// both shaped [1, n]. An optimizer that consumes them forms element (r, c)
// as Outer(a[r], b[c]) and must then leave G pending zero (ZeroGrad) or
// overwrite it (GradForOverwrite).
func (p *Param) PendingOuter() (a, b *tensor.Tensor, ok bool) {
	if p.gst != gradOuter {
		return nil, nil, false
	}
	return p.outA, p.outB, true
}

// deferOuter makes a pending-zero G pending dy ⊗ x for dy [1, rows] and
// x [1, cols] matching a [rows, cols] weight: the batch-one weight gradient
// of a dense layer, without the GEMM and without touching G's storage. It
// returns false, changing nothing, when G is not pending zero.
func (p *Param) deferOuter(dy, x *tensor.Tensor) bool {
	if p.gst != gradZero {
		return false
	}
	if p.outA == nil {
		p.outA = tensor.NewDT(dy.DType(), dy.Shape...)
		p.outB = tensor.NewDT(x.DType(), x.Shape...)
	}
	p.outA.CopyFrom(dy)
	p.outB.CopyFrom(x)
	p.gst = gradOuter
	return true
}

// Outer is element (r, c) of a pending rank-1 gradient, formed from a[r]
// and b[c]. Its literal 0 + is the GEMM's accumulation onto a cleared G at
// batch one, kept so that the sign of a zero product — and the FMA
// contraction of GOAMD64=v3 builds — match MatMulTransAAccInto bit for bit.
// The materialiser and the optimizers' fused loops all call it (it inlines).
func Outer[T tensor.Elem](a, b T) T { return 0 + a*b }

// outerInto writes g = 0 + a⊗b, row-major [len(a), len(b)].
func outerInto[T tensor.Elem](g, a, b []T) {
	n := len(b)
	for r, ar := range a {
		row := g[r*n : (r+1)*n]
		for c, bc := range b {
			row[c] = Outer(ar, bc)
		}
	}
}

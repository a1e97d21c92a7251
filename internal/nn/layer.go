package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is a single-input, single-output differentiable transformation.
// Forward returns an opaque context holding whatever the backward pass
// needs; Backward accumulates parameter gradients into the layer's Params
// and returns the input gradient. A layer must support arbitrarily many
// outstanding contexts (samples in flight).
//
// Buffer ownership (DESIGN.md §7): when ar is non-nil, ownership of x moves
// into the layer at Forward — the layer may retain it in its context until
// the matching Backward, recycle it into ar, or pass it through as output —
// and ownership of the returned y moves out to the caller (a layer never
// retains its output). Backward likewise consumes dy and hands dx to the
// caller, recycling its context buffers into ar. With ar == nil no buffer is
// ever recycled or reused and the layer behaves exactly like the pre-arena
// implementation, which is what evaluation and the unpooled reference
// trainers use.
// ReleaseCtx is the forward-only alternative to Backward: it recycles
// everything a Forward context retains (held activations into ar, pooled
// context structs back onto the layer's free lists) without computing any
// gradient. The inference engine calls it right after consuming a stage's
// output so contexts never accumulate. It must accept a nil ctx and, like
// Backward, must not touch free lists when ar == nil.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (y *tensor.Tensor, ctx any)
	Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) (dx *tensor.Tensor)
	ReleaseCtx(ctx any, ar *tensor.Arena)
	Params() []*Param
}

// ReLU is the rectified-linear activation.
type ReLU struct{}

// Name implements Layer.
func (ReLU) Name() string { return "relu" }

// Forward implements Layer. The context is the input (its sign is the mask).
func (ReLU) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	y := ar.GetDT(x.DType(), x.Shape...)
	if x.DType() == tensor.F32 {
		relu(y.Data32(), x.Data32(), x.Data32())
	} else {
		relu(y.Data, x.Data, x.Data)
	}
	return y, x
}

// Backward implements Layer.
func (ReLU) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	x := ctx.(*tensor.Tensor)
	dx := ar.GetDT(dy.DType(), dy.Shape...)
	if dy.DType() == tensor.F32 {
		relu(dx.Data32(), dy.Data32(), x.Data32())
	} else {
		relu(dx.Data, dy.Data, x.Data)
	}
	ar.Put(dy, x)
	return dx
}

// relu writes src[i] where mask[i] > 0 and 0 elsewhere: the activation with
// mask = src, its gradient with mask = the forward input.
func relu[T tensor.Elem](dst, src, mask []T) {
	for i, v := range src {
		if mask[i] > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReleaseCtx implements Layer.
func (ReLU) ReleaseCtx(ctx any, ar *tensor.Arena) {
	ar.Put(ctx.(*tensor.Tensor))
}

// Params implements Layer.
func (ReLU) Params() []*Param { return nil }

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

// MaxPool2D is kxk max pooling with the given stride.
type MaxPool2D struct {
	K, Stride int
	ctxFree   []*maxPoolCtx
}

type maxPoolCtx struct {
	argmax []int
	xShape []int
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool%dx%d", m.K, m.K) }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: %s input %v, want [N,C,H,W]", m.Name(), x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := tensor.ConvOut(h, m.K, m.Stride, 0), tensor.ConvOut(w, m.K, m.Stride, 0)
	cc := popCtx(ar, &m.ctxFree)
	if cc == nil {
		cc = &maxPoolCtx{}
	}
	cc.argmax = resize(cc.argmax, n*c*oh*ow)
	cc.xShape = resize(cc.xShape, 4)
	copy(cc.xShape, x.Shape)
	y := ar.GetDT(x.DType(), n, c, oh, ow)
	tensor.MaxPool2DForwardInto(y, cc.argmax, x, m.K, m.Stride)
	ar.Put(x)
	return y, cc
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	cc := ctx.(*maxPoolCtx)
	dx := ar.GetDT(dy.DType(), cc.xShape...)
	tensor.MaxPool2DBackwardInto(dx, dy, cc.argmax)
	ar.Put(dy)
	if ar != nil {
		m.ctxFree = append(m.ctxFree, cc)
	}
	return dx
}

// ReleaseCtx implements Layer.
func (m *MaxPool2D) ReleaseCtx(ctx any, ar *tensor.Arena) {
	if ar != nil {
		m.ctxFree = append(m.ctxFree, ctx.(*maxPoolCtx))
	}
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces [N,C,H,W] to [N,C].
type GlobalAvgPool struct {
	// ctxFree pools pre-boxed []int shape contexts (see LayerStage.ctxsFree).
	ctxFree []any
}

// Name implements Layer.
func (*GlobalAvgPool) Name() string { return "gap" }

// Forward implements Layer.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, ar *tensor.Arena, par *tensor.Parallel) (*tensor.Tensor, any) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: gap input %v, want [N,C,H,W]", x.Shape))
	}
	ctxBox, shape := popShapeBox(ar, &l.ctxFree, len(x.Shape))
	copy(shape, x.Shape)
	y := ar.GetDT(x.DType(), x.Shape[0], x.Shape[1])
	tensor.GlobalAvgPoolForwardInto(y, x)
	ar.Put(x)
	return y, ctxBox
}

// Backward implements Layer.
func (l *GlobalAvgPool) Backward(dy *tensor.Tensor, ctx any, ar *tensor.Arena, par *tensor.Parallel) *tensor.Tensor {
	dx := ar.GetDT(dy.DType(), ctx.([]int)...)
	tensor.GlobalAvgPoolBackwardInto(dx, dy)
	ar.Put(dy)
	if ar != nil {
		l.ctxFree = append(l.ctxFree, ctx)
	}
	return dx
}

// ReleaseCtx implements Layer.
func (l *GlobalAvgPool) ReleaseCtx(ctx any, ar *tensor.Arena) {
	if ar != nil {
		l.ctxFree = append(l.ctxFree, ctx)
	}
}

// Params implements Layer.
func (*GlobalAvgPool) Params() []*Param { return nil }

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

package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Packet is what flows between pipeline stages: the main activation plus a
// stack of pending skip-connection activations. Residual networks map onto a
// purely linear pipeline by carrying the shortcut alongside the main path —
// exactly how the paper's GProp framework pipelines ResNets, with sum nodes
// as their own stages.
type Packet struct {
	X     *tensor.Tensor
	Skips []*tensor.Tensor
}

// NewPacket wraps a tensor in a packet with an empty skip stack.
func NewPacket(x *tensor.Tensor) *Packet { return &Packet{X: x} }

// clone copies the packet structure (tensors are shared, the stack is not).
func (p *Packet) clone() *Packet {
	q := &Packet{X: p.X}
	if len(p.Skips) > 0 {
		q.Skips = make([]*tensor.Tensor, len(p.Skips))
		copy(q.Skips, p.Skips)
	}
	return q
}

// Stage is one pipeline stage: a differentiable packet transformation.
// Like Layer, any number of samples may be in flight.
//
// Buffer ownership follows the Layer contract (DESIGN.md §7): with a non-nil
// arena the input packet and its tensors move into the stage, the returned
// packet moves out (the input Packet struct may be reused as the output),
// and context buffers are recycled into ar at Backward. With ar == nil
// nothing is reused and the input packet is never mutated.
// ReleaseCtx mirrors Layer.ReleaseCtx at stage granularity: it recycles a
// Forward context without running Backward, so forward-only pipelines (the
// inference engine) release per-sample state as soon as the next stage has
// consumed the packet. Skip activations pushed onto the packet are NOT part
// of the context — they travel with the packet and are consumed by the
// matching AddSkip stage downstream.
type Stage interface {
	Name() string
	Forward(p *Packet, ar *tensor.Arena, par *tensor.Parallel) (*Packet, any)
	Backward(dp *Packet, ctx any, ar *tensor.Arena, par *tensor.Parallel) *Packet
	ReleaseCtx(ctx any, ar *tensor.Arena)
	Params() []*Param
}

// LayerStage applies a fixed sequence of layers to the packet's main
// activation; the skip stack passes through untouched. The paper fuses
// conv + normalization + ReLU into single stages this way.
type LayerStage struct {
	Layers   []Layer
	nameText string
	// ctxsFree pools per-sample context slices as pre-boxed `any` values:
	// returning a pooled box avoids re-boxing the []any on every Forward
	// (interface conversion of a slice allocates).
	ctxsFree []any
}

// NewLayerStage fuses layers into one pipeline stage.
func NewLayerStage(name string, layers ...Layer) *LayerStage {
	return &LayerStage{Layers: layers, nameText: name}
}

// Name implements Stage.
func (s *LayerStage) Name() string { return s.nameText }

// Forward implements Stage.
func (s *LayerStage) Forward(p *Packet, ar *tensor.Arena, par *tensor.Parallel) (*Packet, any) {
	ctxBox := popBox(ar, &s.ctxsFree)
	var ctxs []any
	if ctxBox != nil {
		ctxs = ctxBox.([]any)
	} else {
		ctxs = make([]any, len(s.Layers))
		ctxBox = ctxs
	}
	x := p.X
	for i, l := range s.Layers {
		x, ctxs[i] = l.Forward(x, ar, par)
	}
	if ar != nil {
		p.X = x
		return p, ctxBox
	}
	q := p.clone()
	q.X = x
	return q, ctxBox
}

// Backward implements Stage.
func (s *LayerStage) Backward(dp *Packet, ctx any, ar *tensor.Arena, par *tensor.Parallel) *Packet {
	ctxs := ctx.([]any)
	dx := dp.X
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dx = s.Layers[i].Backward(dx, ctxs[i], ar, par)
	}
	if ar != nil {
		for i := range ctxs {
			ctxs[i] = nil
		}
		s.ctxsFree = append(s.ctxsFree, ctx)
		dp.X = dx
		return dp
	}
	dq := dp.clone()
	dq.X = dx
	return dq
}

// ReleaseCtx implements Stage.
func (s *LayerStage) ReleaseCtx(ctx any, ar *tensor.Arena) {
	ctxs := ctx.([]any)
	for i, l := range s.Layers {
		l.ReleaseCtx(ctxs[i], ar)
	}
	if ar != nil {
		for i := range ctxs {
			ctxs[i] = nil
		}
		s.ctxsFree = append(s.ctxsFree, ctx)
	}
}

// Params implements Stage.
func (s *LayerStage) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Shortcut transforms the skip-branch activation. The paper's pre-activation
// ResNets use parameter-free shortcuts so that all learnable state lives in
// conv/norm stages. Apply and Grad may return their input unchanged; callers
// that recycle buffers must copy in that case (PushSkip does).
type Shortcut interface {
	Apply(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor
	Grad(dy *tensor.Tensor, xShape []int, ar *tensor.Arena) *tensor.Tensor
}

// IdentityShortcut passes the activation through unchanged.
type IdentityShortcut struct{}

// Apply implements Shortcut.
func (IdentityShortcut) Apply(x *tensor.Tensor, _ *tensor.Arena) *tensor.Tensor { return x }

// Grad implements Shortcut.
func (IdentityShortcut) Grad(dy *tensor.Tensor, _ []int, _ *tensor.Arena) *tensor.Tensor { return dy }

// DownsampleShortcut is the parameter-free "option A" ResNet shortcut:
// 2x2 average pooling followed by zero-padding the channel dimension to OutC.
type DownsampleShortcut struct {
	OutC int
}

// Apply implements Shortcut.
func (d DownsampleShortcut) Apply(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	p := ar.GetDT(x.DType(), n, c, oh, ow)
	tensor.AvgPool2DForwardInto(p, x, 2)
	if c == d.OutC {
		return p
	}
	y := ar.GetZeroedDT(x.DType(), n, d.OutC, oh, ow)
	if x.DType() == tensor.F32 {
		copyBlocks(y.Data32(), p.Data32(), n, d.OutC*oh*ow, c*oh*ow, c*oh*ow)
	} else {
		copyBlocks(y.Data, p.Data, n, d.OutC*oh*ow, c*oh*ow, c*oh*ow)
	}
	ar.Put(p)
	return y
}

// copyBlocks copies the leading size elements of each of n per-sample
// blocks of src (block stride srcStride) into the matching blocks of dst
// (stride dstStride) — the channel pad and strip of DownsampleShortcut.
func copyBlocks[T tensor.Elem](dst, src []T, n, dstStride, srcStride, size int) {
	for s := 0; s < n; s++ {
		copy(dst[s*dstStride:s*dstStride+size], src[s*srcStride:s*srcStride+size])
	}
}

// Grad implements Shortcut.
func (d DownsampleShortcut) Grad(dy *tensor.Tensor, xShape []int, ar *tensor.Arena) *tensor.Tensor {
	n, c := xShape[0], xShape[1]
	oh, ow := xShape[2]/2, xShape[3]/2
	// Strip the zero-padded channels, then run the pooling adjoint.
	dp := ar.GetDT(dy.DType(), n, c, oh, ow)
	if dy.DType() == tensor.F32 {
		copyBlocks(dp.Data32(), dy.Data32(), n, c*oh*ow, d.OutC*oh*ow, c*oh*ow)
	} else {
		copyBlocks(dp.Data, dy.Data, n, c*oh*ow, d.OutC*oh*ow, c*oh*ow)
	}
	dx := ar.GetDT(dy.DType(), xShape...)
	tensor.AvgPool2DBackwardInto(dx, dp, 2)
	ar.Put(dp)
	return dx
}

// PushSkip is the branch point of a residual block: it pushes a (possibly
// downsampled) copy of the activation onto the skip stack.
type PushSkip struct {
	Short    Shortcut
	nameText string
	// ctxFree pools pre-boxed []int shape contexts (see LayerStage.ctxsFree).
	ctxFree []any
}

// NewPushSkip builds a branch-point stage; short may be nil for identity.
func NewPushSkip(name string, short Shortcut) *PushSkip {
	if short == nil {
		short = IdentityShortcut{}
	}
	return &PushSkip{Short: short, nameText: name}
}

// Name implements Stage.
func (s *PushSkip) Name() string { return s.nameText }

// Forward implements Stage.
func (s *PushSkip) Forward(p *Packet, ar *tensor.Arena, par *tensor.Parallel) (*Packet, any) {
	skip := s.Short.Apply(p.X, ar)
	if ar != nil && skip == p.X {
		// Identity shortcuts alias the main path; copy so every tensor in
		// the pipeline has exactly one owner (DESIGN.md §7).
		c := ar.GetDT(p.X.DType(), p.X.Shape...)
		c.CopyFrom(p.X)
		skip = c
	}
	ctxBox, shape := popShapeBox(ar, &s.ctxFree, len(p.X.Shape))
	copy(shape, p.X.Shape)
	if ar != nil {
		p.Skips = append(p.Skips, skip)
		return p, ctxBox
	}
	q := p.clone()
	q.Skips = append(q.Skips, skip)
	return q, ctxBox
}

// Backward implements Stage. The incoming gradient packet carries the skip
// gradient on top of its stack; it folds back into the main path here.
func (s *PushSkip) Backward(dp *Packet, ctx any, ar *tensor.Arena, par *tensor.Parallel) *Packet {
	if len(dp.Skips) == 0 {
		panic("nn: PushSkip backward with empty skip-gradient stack")
	}
	xShape := ctx.([]int)
	top := dp.Skips[len(dp.Skips)-1]
	g := s.Short.Grad(top, xShape, ar)
	if ar != nil {
		// dp.X is solely owned here (AddSkip.Backward copied the skip
		// gradient), so the fold is done in place — no copy, no buffer cycle.
		dp.X.Add(g)
		ar.Put(top)
		if g != top {
			ar.Put(g)
		}
		s.ctxFree = append(s.ctxFree, ctx)
		dp.Skips = dp.Skips[:len(dp.Skips)-1]
		return dp
	}
	dx := dp.X.Clone()
	dx.Add(g)
	dq := &Packet{X: dx, Skips: dp.Skips[:len(dp.Skips)-1]}
	return dq
}

// ReleaseCtx implements Stage. The pushed skip tensor lives on the packet,
// not in the context, so only the pooled shape box is recycled here.
func (s *PushSkip) ReleaseCtx(ctx any, ar *tensor.Arena) {
	if ar != nil {
		s.ctxFree = append(s.ctxFree, ctx)
	}
}

// Params implements Stage.
func (s *PushSkip) Params() []*Param { return nil }

// AddSkip is the residual sum node: X' = X + top-of-skip-stack. In the
// paper's implementation these sum nodes are pipeline stages of their own.
type AddSkip struct {
	nameText string
}

// NewAddSkip builds a sum-node stage.
func NewAddSkip(name string) *AddSkip { return &AddSkip{nameText: name} }

// Name implements Stage.
func (s *AddSkip) Name() string { return s.nameText }

// Forward implements Stage.
func (s *AddSkip) Forward(p *Packet, ar *tensor.Arena, par *tensor.Parallel) (*Packet, any) {
	if len(p.Skips) == 0 {
		panic("nn: AddSkip forward with empty skip stack")
	}
	top := p.Skips[len(p.Skips)-1]
	if !p.X.SameShape(top) {
		panic(fmt.Sprintf("nn: AddSkip shape mismatch %v + %v", p.X.Shape, top.Shape))
	}
	y := ar.GetDT(p.X.DType(), p.X.Shape...)
	if p.X.DType() == tensor.F32 {
		addInto(y.Data32(), p.X.Data32(), top.Data32())
	} else {
		addInto(y.Data, p.X.Data, top.Data)
	}
	ar.Put(p.X, top)
	if ar != nil {
		p.X = y
		p.Skips = p.Skips[:len(p.Skips)-1]
		return p, nil
	}
	return &Packet{X: y, Skips: p.Skips[:len(p.Skips)-1]}, nil
}

// addInto writes a + b into dst element-wise.
func addInto[T tensor.Elem](dst, a, b []T) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// Backward implements Stage: the gradient flows to both branches.
func (s *AddSkip) Backward(dp *Packet, _ any, ar *tensor.Arena, par *tensor.Parallel) *Packet {
	if ar != nil {
		// Copy the gradient for the skip branch so the two paths do not
		// alias (each will be consumed — and recycled — independently).
		c := ar.GetDT(dp.X.DType(), dp.X.Shape...)
		c.CopyFrom(dp.X)
		dp.Skips = append(dp.Skips, c)
		return dp
	}
	dq := dp.clone()
	dq.Skips = append(dq.Skips, dp.X)
	return dq
}

// ReleaseCtx implements Stage.
func (s *AddSkip) ReleaseCtx(any, *tensor.Arena) {}

// Params implements Stage.
func (s *AddSkip) Params() []*Param { return nil }

// FusedStage composes consecutive pipeline stages into one coarser stage.
// The pipeline partitioner uses it to trade pipeline depth (and therefore
// gradient delay) against worker parallelism — the granularity knob the
// paper's Section 2 footnote and Appendix A discuss.
type FusedStage struct {
	Stages   []Stage
	nameText string
	// ctxsFree pools pre-boxed context slices (see LayerStage.ctxsFree).
	ctxsFree []any
}

// FuseStages fuses stages into a single pipeline stage.
func FuseStages(name string, stages ...Stage) *FusedStage {
	if len(stages) == 0 {
		panic("nn: FuseStages needs at least one stage")
	}
	return &FusedStage{Stages: stages, nameText: name}
}

// Name implements Stage.
func (f *FusedStage) Name() string { return f.nameText }

// Forward implements Stage.
func (f *FusedStage) Forward(p *Packet, ar *tensor.Arena, par *tensor.Parallel) (*Packet, any) {
	ctxBox := popBox(ar, &f.ctxsFree)
	var ctxs []any
	if ctxBox != nil {
		ctxs = ctxBox.([]any)
	} else {
		ctxs = make([]any, len(f.Stages))
		ctxBox = ctxs
	}
	for i, s := range f.Stages {
		p, ctxs[i] = s.Forward(p, ar, par)
	}
	return p, ctxBox
}

// Backward implements Stage.
func (f *FusedStage) Backward(dp *Packet, ctx any, ar *tensor.Arena, par *tensor.Parallel) *Packet {
	ctxs := ctx.([]any)
	for i := len(f.Stages) - 1; i >= 0; i-- {
		dp = f.Stages[i].Backward(dp, ctxs[i], ar, par)
	}
	if ar != nil {
		for i := range ctxs {
			ctxs[i] = nil
		}
		f.ctxsFree = append(f.ctxsFree, ctx)
	}
	return dp
}

// ReleaseCtx implements Stage.
func (f *FusedStage) ReleaseCtx(ctx any, ar *tensor.Arena) {
	ctxs := ctx.([]any)
	for i, s := range f.Stages {
		s.ReleaseCtx(ctxs[i], ar)
	}
	if ar != nil {
		for i := range ctxs {
			ctxs[i] = nil
		}
		f.ctxsFree = append(f.ctxsFree, ctx)
	}
}

// Params implements Stage.
func (f *FusedStage) Params() []*Param {
	var ps []*Param
	for _, s := range f.Stages {
		ps = append(ps, s.Params()...)
	}
	return ps
}

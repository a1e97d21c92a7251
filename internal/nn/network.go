package nn

import "repro/internal/tensor"

// Network is an ordered list of pipeline stages followed by a softmax
// cross-entropy head. It is the unit the trainers operate on: the reference
// SGDM trainer runs whole forward/backward passes over it, while the
// pipelined-backpropagation engine drives the stages individually.
type Network struct {
	Stages []Stage
	Head   SoftmaxCrossEntropy
}

// NewNetwork wraps stages into a network.
func NewNetwork(stages ...Stage) *Network { return &Network{Stages: stages} }

// NumStages returns the pipeline depth S.
func (n *Network) NumStages() int { return len(n.Stages) }

// Params returns all learnable parameters, in stage order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, s := range n.Stages {
		ps = append(ps, s.Params()...)
	}
	return ps
}

// StageParams returns the parameters of stage s.
func (n *Network) StageParams(s int) []*Param { return n.Stages[s].Params() }

// DType reports the parameter dtype (F64 for a parameter-free network).
func (n *Network) DType() tensor.DType {
	if ps := n.Params(); len(ps) > 0 {
		return ps[0].DType()
	}
	return tensor.F64
}

// ConvertTo converts every parameter to dt in place: weights by direct value
// cast, gradient accumulators reset to zero at the new dtype. Networks are
// always built (and initialized) at f64 and converted afterwards, so an f32
// model is the deterministic rounding of its f64 twin (DESIGN.md §15).
func (n *Network) ConvertTo(dt tensor.DType) {
	for _, p := range n.Params() {
		p.ConvertTo(dt)
	}
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Forward runs a full forward pass, returning the logits and the per-stage
// contexts needed for Backward. It runs unpooled (no buffer reuse), which is
// what evaluation and the reference trainers need: the caller keeps
// ownership of x and of the returned logits.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, []any) {
	// Feeders supply float64 batches; convert at the boundary when the
	// network itself runs at another dtype (identity otherwise).
	x = x.ConvertTo(n.DType())
	p := NewPacket(x)
	ctxs := make([]any, len(n.Stages))
	for i, s := range n.Stages {
		p, ctxs[i] = s.Forward(p, nil, nil)
	}
	if len(p.Skips) != 0 {
		panic("nn: network left unconsumed skip activations")
	}
	return p.X, ctxs
}

// Backward propagates dlogits through all stages in reverse, accumulating
// parameter gradients, and returns the input gradient. Unpooled, like
// Forward.
func (n *Network) Backward(dlogits *tensor.Tensor, ctxs []any) *tensor.Tensor {
	dp := NewPacket(dlogits)
	for i := len(n.Stages) - 1; i >= 0; i-- {
		dp = n.Stages[i].Backward(dp, ctxs[i], nil, nil)
	}
	return dp.X
}

// LossAndGrad runs forward + loss + backward for one batch and returns the
// loss and the number of correct predictions. Parameter gradients are
// accumulated (callers zero them).
func (n *Network) LossAndGrad(x *tensor.Tensor, labels []int) (float64, int) {
	logits, ctxs := n.Forward(x)
	loss, dl := n.Head.Loss(logits, labels)
	n.Backward(dl, ctxs)
	return loss, Accuracy(logits, labels)
}

// Predict runs a forward pass only and returns the logits.
func (n *Network) Predict(x *tensor.Tensor) *tensor.Tensor {
	logits, _ := n.Forward(x)
	return logits
}

// Evaluate computes mean loss and accuracy over a dataset given as a slice
// of (input, labels) batches.
func (n *Network) Evaluate(xs []*tensor.Tensor, labels [][]int) (meanLoss, acc float64) {
	totalLoss, correct, count := 0.0, 0, 0
	for i, x := range xs {
		logits, _ := n.Forward(x)
		l, _ := n.Head.Loss(logits, labels[i])
		totalLoss += l * float64(x.Shape[0])
		correct += Accuracy(logits, labels[i])
		count += x.Shape[0]
	}
	return totalLoss / float64(count), float64(correct) / float64(count)
}

// SnapshotWeights copies all parameter values (used by the delayed-gradient
// simulator's weight ring buffer and by weight stashing tests).
func (n *Network) SnapshotWeights() [][]float64 {
	ps := n.Params()
	snap := make([][]float64, len(ps))
	for i, p := range ps {
		snap[i] = p.Snapshot()
	}
	return snap
}

// RestoreWeights copies a snapshot back into the parameters.
func (n *Network) RestoreWeights(snap [][]float64) {
	ps := n.Params()
	if len(snap) != len(ps) {
		panic("nn: RestoreWeights snapshot mismatch")
	}
	for i, p := range ps {
		p.SetData(snap[i])
	}
}

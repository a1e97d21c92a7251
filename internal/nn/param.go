// Package nn implements the neural-network layers and pipeline-stage
// plumbing used by the pipelined-backpropagation engine. Layers are
// functional: Forward returns an opaque context that Backward consumes, so
// any number of samples can be in flight through a layer at once — the
// property the fine-grained pipeline engine (internal/core) relies on.
package nn

import "repro/internal/tensor"

// Param is a learnable parameter with its gradient accumulator.
// Backward passes accumulate into G; optimizers read G and must zero it.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// NewParam allocates a parameter and matching zero gradient (same dtype as
// the weights).
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.NewDT(w.DType(), w.Shape...)}
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

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

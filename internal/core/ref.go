package core

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// AssembleBatch stacks (optionally augmented) samples into one tensor. Both
// reference trainers use it so that, given identical orders and RNG streams,
// they consume identical inputs — the precondition for the fill-and-drain
// equivalence test (Fig. 16 validation).
func AssembleBatch(ds *data.Dataset, idx []int, aug data.Augmenter, rng *rand.Rand) (*tensor.Tensor, []int) {
	sz := ds.SampleSize()
	shape := append([]int{len(idx)}, ds.Shape...)
	x := tensor.New(shape...)
	labels := make([]int, len(idx))
	for i, j := range idx {
		sample := ds.Samples[j]
		if aug != nil {
			sample = aug.Apply(sample, rng)
		}
		copy(x.Data[i*sz:(i+1)*sz], sample)
		labels[i] = ds.Labels[j]
	}
	return x, labels
}

// SGDTrainer is the paper's SGDM reference: sequential mini-batch training
// with no pipeline and therefore no delay or inconsistency.
type SGDTrainer struct {
	Net       *nn.Network
	Cfg       Config
	BatchSize int
	opt       *optim.Momentum
	step      int
}

// NewSGDTrainer builds the reference trainer.
func NewSGDTrainer(net *nn.Network, cfg Config, batchSize int) *SGDTrainer {
	o := optim.NewMomentum(cfg.LR, cfg.Momentum)
	o.WeightDecay = cfg.WeightDecay
	return &SGDTrainer{Net: net, Cfg: cfg, BatchSize: batchSize, opt: o}
}

// TrainEpoch performs one epoch of mini-batch SGDM in the order of perm
// (sequential when nil) and returns mean training loss and accuracy.
func (t *SGDTrainer) TrainEpoch(ds *data.Dataset, perm []int, aug data.Augmenter, rng *rand.Rand) (meanLoss, acc float64) {
	var lossMeter metrics.Meter
	correct, count := 0, 0
	n := ds.Len()
	for start := 0; start < n; start += t.BatchSize {
		end := start + t.BatchSize
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			if perm != nil {
				idx[i] = perm[start+i]
			} else {
				idx[i] = start + i
			}
		}
		x, labels := AssembleBatch(ds, idx, aug, rng)
		t.Net.ZeroGrad()
		loss, c := t.Net.LossAndGrad(x, labels)
		t.opt.LR = t.Cfg.lrAt(t.step)
		t.opt.Step(t.Net.Params())
		t.step++
		lossMeter.Add(loss, float64(len(idx)))
		correct += c
		count += len(idx)
	}
	return lossMeter.Mean(), float64(correct) / float64(count)
}

// FillDrainTrainer performs pipeline-parallel SGD with fill and drain: it
// feeds a batch of N samples one per step through the pipeline, waits for
// all N gradients (2S−1 steps for the last sample), applies a single
// averaged update, and only then admits the next batch. Its weight
// trajectory is mathematically identical to SGDTrainer (verified by tests);
// what differs is the step accounting: each batch costs N+2S−2 pipeline
// steps, of which only a fraction do useful work (Eq. 1).
type FillDrainTrainer struct {
	Net       *nn.Network
	Cfg       Config
	BatchSize int
	opt       *optim.Momentum
	step      int
	// Steps counts pipeline steps including fill/drain bubbles.
	Steps int
	// SamplesDone counts completed samples, for utilization accounting.
	SamplesDone int
}

// NewFillDrainTrainer builds the fill-and-drain trainer.
func NewFillDrainTrainer(net *nn.Network, cfg Config, batchSize int) *FillDrainTrainer {
	o := optim.NewMomentum(cfg.LR, cfg.Momentum)
	o.WeightDecay = cfg.WeightDecay
	return &FillDrainTrainer{Net: net, Cfg: cfg, BatchSize: batchSize, opt: o}
}

// TrainEpoch runs one epoch. Per batch it pushes each sample individually
// through the stage graph (weights frozen — the defining property of fill
// and drain), accumulates the per-sample gradients scaled by 1/N, then
// applies one SGDM update.
func (t *FillDrainTrainer) TrainEpoch(ds *data.Dataset, perm []int, aug data.Augmenter, rng *rand.Rand) (meanLoss, acc float64) {
	var lossMeter metrics.Meter
	correct, count := 0, 0
	n := ds.Len()
	s := t.Net.NumStages()
	for start := 0; start < n; start += t.BatchSize {
		end := start + t.BatchSize
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			if perm != nil {
				idx[i] = perm[start+i]
			} else {
				idx[i] = start + i
			}
		}
		x, labels := AssembleBatch(ds, idx, aug, rng)
		bs := len(idx)
		t.Net.ZeroGrad()
		sz := ds.SampleSize()
		for i := 0; i < bs; i++ {
			shape := append([]int{1}, ds.Shape...)
			xi := tensor.New(shape...)
			copy(xi.Data, x.Data[i*sz:(i+1)*sz])
			logits, ctxs := t.Net.Forward(xi)
			loss, dl := t.Net.Head.Loss(logits, labels[i:i+1])
			dl.Scale(1 / float64(bs)) // average over the update size
			t.Net.Backward(dl, ctxs)
			lossMeter.Add(loss, 1)
			correct += nn.Accuracy(logits, labels[i:i+1])
			count++
		}
		t.opt.LR = t.Cfg.lrAt(t.step)
		t.opt.Step(t.Net.Params())
		t.step++
		// Pipeline cost: the batch fills and drains an S-stage pipeline.
		t.Steps += bs + 2*s - 2
		t.SamplesDone += bs
	}
	return lossMeter.Mean(), float64(correct) / float64(count)
}

// Utilization returns the achieved fraction of worker capacity, bounded
// above by N/(N+2S) (Eq. 1).
func (t *FillDrainTrainer) Utilization() float64 {
	if t.Steps == 0 {
		return 0
	}
	s := t.Net.NumStages()
	return float64(2*s*t.SamplesDone) / float64(2*s*t.Steps)
}

// Optimizer exposes the trainer's optimizer (for checkpointing).
func (t *SGDTrainer) Optimizer() *optim.Momentum { return t.opt }

// StepCounter exposes the trainer's update-step counter — the LR-schedule
// position — so a checkpoint view (checkpoint.SGDM) can read and restore it.
func (t *SGDTrainer) StepCounter() *int { return &t.step }

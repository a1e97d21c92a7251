// Package delaysim reimplements the paper's Appendix G.2 simulator: training
// with a constant gradient delay for every layer, with or without weight
// inconsistency, without a real pipeline. The paper used it (in PyTorch) to
// isolate the two PB pathologies — Figs. 10, 13 and 14 are produced this way
// — because a constant delay across layers upper-bounds the per-stage delays
// of the real pipeline.
//
// Implementation note: instead of the paper's "load parameters from D steps
// ago" formulation, we use the time-shifted but mathematically identical
// queue formulation: the forward pass runs at the current weights and its
// backward pass executes D updates later, against the then-current weights
// (inconsistent) or against a stash of the weights used on the forward pass
// (consistent). The per-sample contexts of internal/nn make this direct.
package delaysim

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// Config parameterizes delayed training.
type Config struct {
	// Delay is the constant gradient delay D in updates applied to every
	// layer.
	Delay int
	// JitterDelay turns the constant delay into a random one uniform on
	// [0, 2·Delay] (resampled per batch, reordering-free: the queue pops in
	// FIFO order but the *effective* queue length varies). This simulates
	// asynchronous SGD, the extension the paper sketches at the end of
	// Appendix G.2. It requires Delay ≥ 1 — jitter around a zero delay has
	// no distribution to draw from — and New panics otherwise.
	//
	// Determinism contract: the jitter stream is rand.New(JitterSeed+1),
	// consumed exactly once per target-queue-length decision (one decision
	// per batch, in submission order, plus the drains a larger target
	// defers). No other consumer touches the stream, so a fixed (Delay,
	// JitterSeed, batch sequence) triple replays the identical effective
	// delay sequence — the same contract internal/chaos keeps with its
	// hash-derived jitter, kept here with a sequential PRNG because the
	// simulator is single-threaded by construction.
	JitterDelay bool
	JitterSeed  int64
	// UseAdam replaces SGDM with Adam (no SC/LWP — Section 5 discusses
	// adaptive optimizers as an orthogonal delay-tolerance mechanism).
	UseAdam bool
	// Consistent selects the Fig. 10 mode: true = "Consistent Delay" (the
	// backward pass reuses the forward weights — delayed but consistent);
	// false = "Forward Delay Only" (backward at current weights —
	// inconsistent, as in real PB without stashing).
	Consistent bool
	LR         float64
	Momentum   float64
	// WeightDecay is L2 regularization folded into the gradient.
	WeightDecay float64
	BatchSize   int
	Schedule    sched.Schedule
	// SC enables spike compensation with delay SCScale·D (default scale 1).
	SC      bool
	SCScale float64
	// LWP enables weight prediction at the forward pass with horizon
	// LWPScale·D, or LWPHorizon when positive (the Fig. 13 horizon scan).
	LWP        bool
	LWPForm    optim.LWPForm
	LWPScale   float64
	LWPHorizon float64
}

// horizon returns the effective prediction horizon.
func (c Config) horizon() float64 {
	if !c.LWP {
		return 0
	}
	if c.LWPHorizon > 0 {
		return c.LWPHorizon
	}
	scale := c.LWPScale
	if scale == 0 {
		scale = 1
	}
	return scale * float64(c.Delay)
}

// pending is a forward pass awaiting its delayed backward pass.
type pending struct {
	ctxs    []any
	dlogits *tensor.Tensor
	stash   [][]float64
	labels  []int
}

// Trainer runs delayed-gradient training over a network.
type Trainer struct {
	Net *nn.Network
	Cfg Config
	opt *optim.Momentum
	// adam replaces opt when Cfg.UseAdam is set.
	adam *optim.Adam
	// queue holds forwards whose backwards have not executed yet.
	queue []pending
	step  int
	// jitter draws the per-step target queue length in ASGD mode.
	jitter *rand.Rand
	// Updates counts optimizer steps applied.
	Updates int
}

// New builds a delayed trainer. Spike-compensation coefficients are fixed
// from the configured delay. A JitterDelay config with Delay < 1 is a
// programming error (the uniform [0, 2·Delay] draw is degenerate at 0 and
// panics inside rand.Intn for negative delays, many batches in): New
// rejects it up front.
func New(net *nn.Network, cfg Config) *Trainer {
	if cfg.JitterDelay && cfg.Delay < 1 {
		panic("delaysim: JitterDelay requires Delay ≥ 1 (jitter draws uniform on [0, 2·Delay])")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	o := optim.NewMomentum(cfg.LR, cfg.Momentum)
	o.WeightDecay = cfg.WeightDecay
	if cfg.SC {
		scale := cfg.SCScale
		if scale == 0 {
			scale = 1
		}
		o.A, o.B = optim.SpikeCoefficients(cfg.Momentum, scale*float64(cfg.Delay))
	}
	if cfg.LWP && cfg.LWPForm == optim.LWPWeight {
		o.TrackPrev = true
	}
	t := &Trainer{Net: net, Cfg: cfg, opt: o}
	if cfg.UseAdam {
		t.adam = optim.NewAdam(cfg.LR)
	}
	if cfg.JitterDelay {
		t.jitter = rand.New(rand.NewSource(cfg.JitterSeed + 1))
	}
	return t
}

// targetQueueLen returns how many pending backwards should remain queued
// after this step: the constant delay, or a random draw in ASGD mode.
func (t *Trainer) targetQueueLen() int {
	if t.jitter == nil {
		return t.Cfg.Delay
	}
	return t.jitter.Intn(2*t.Cfg.Delay + 1)
}

// lrAt returns the scheduled learning rate.
func (t *Trainer) lrAt() float64 {
	if t.Cfg.Schedule == nil {
		return t.Cfg.LR
	}
	return t.Cfg.Schedule.LR(t.step)
}

// forward runs one batch's forward pass and loss under (possibly predicted)
// weights and enqueues the backward work.
func (t *Trainer) forward(x *tensor.Tensor, labels []int) (loss float64, correct int) {
	params := t.Net.Params()
	var stash [][]float64
	horizon := t.Cfg.horizon()

	runForward := func() (float64, int, []any, *tensor.Tensor) {
		logits, ctxs := t.Net.Forward(x)
		l, dl := t.Net.Head.Loss(logits, labels)
		return l, nn.Accuracy(logits, labels), ctxs, dl
	}

	var ctxs []any
	var dl *tensor.Tensor
	if horizon > 0 {
		pred := make([][]float64, len(params))
		for i, p := range params {
			pred[i] = t.opt.Predict(p, t.Cfg.LWPForm, horizon)
		}
		old := make([][]float64, len(params))
		for i, p := range params {
			old[i] = p.SwapData(pred[i])
		}
		loss, correct, ctxs, dl = runForward()
		for i, p := range params {
			p.SwapData(old[i])
		}
		if t.Cfg.Consistent {
			stash = pred
		}
	} else {
		if t.Cfg.Consistent {
			stash = make([][]float64, len(params))
			for i, p := range params {
				stash[i] = p.Snapshot()
			}
		}
		loss, correct, ctxs, dl = runForward()
	}
	t.queue = append(t.queue, pending{ctxs: ctxs, dlogits: dl, stash: stash, labels: labels})
	return loss, correct
}

// backward executes the oldest queued backward pass and applies one update.
func (t *Trainer) backward() {
	p := t.queue[0]
	t.queue = t.queue[1:]
	params := t.Net.Params()
	t.Net.ZeroGrad()
	if p.stash != nil {
		old := make([][]float64, len(params))
		for i, pr := range params {
			old[i] = pr.SwapData(p.stash[i])
		}
		t.Net.Backward(p.dlogits, p.ctxs)
		for i, pr := range params {
			pr.SwapData(old[i])
		}
	} else {
		t.Net.Backward(p.dlogits, p.ctxs)
	}
	if t.adam != nil {
		t.adam.LR = t.lrAt()
		t.adam.Step(params)
	} else {
		t.opt.LR = t.lrAt()
		t.opt.Step(params)
	}
	t.step++
	t.Updates++
}

// TrainEpoch runs one epoch with the configured delay and returns mean
// training loss and accuracy (measured at forward time). The queue persists
// across epochs; call Drain to flush it at the end of training.
func (t *Trainer) TrainEpoch(ds *data.Dataset, perm []int, aug data.Augmenter, rng *rand.Rand) (meanLoss, acc float64) {
	var lossMeter metrics.Meter
	correct, count := 0, 0
	n := ds.Len()
	for start := 0; start < n; start += t.Cfg.BatchSize {
		end := start + t.Cfg.BatchSize
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
		x, labels := core.AssembleBatch(ds, idx, aug, rng)
		loss, c := t.forward(x, labels)
		lossMeter.Add(loss, float64(len(idx)))
		correct += c
		count += len(idx)
		// The gradient from D batches ago arrives now (ASGD mode: a random
		// number of outstanding gradients arrive).
		for len(t.queue) > t.targetQueueLen() {
			t.backward()
		}
	}
	return lossMeter.Mean(), float64(correct) / float64(count)
}

// Drain applies all still-queued backward passes.
func (t *Trainer) Drain() {
	for len(t.queue) > 0 {
		t.backward()
	}
}

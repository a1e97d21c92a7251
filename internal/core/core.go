// Package core implements the paper's central contribution: fine-grained
// Pipelined Backpropagation (PB) with an update size of one, together with
// its delay-mitigation methods (Spike Compensation, Linear Weight
// Prediction, their combination, SpecTrain and Gradient Shrinking as
// comparators, and Weight Stashing), plus the reference trainers it is
// evaluated against (mini-batch SGDM and fill-and-drain pipeline SGD).
//
// The PB engine is cycle-accurate in the sense that matters for training
// dynamics: at every pipeline step each stage performs one forward and one
// backward transformation and applies one weight update per arriving
// gradient, so stage s of an S-stage pipeline sees its gradients delayed by
// exactly
//
//	D_s = 2·(S−1−s)
//
// weight updates (Eq. 5), with the forward and backward passes of a sample
// seeing different weights unless weight stashing is enabled. This
// reproduces the paper's GProp schedule (Appendix G.1) in pure Go.
package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/sched"
)

// StageDelays returns the per-stage gradient delay of fine-grained PB with
// update size one: D_s = 2(S−1−s) for s = 0..S−1 (Eq. 5). The last stage has
// zero delay; the first stage the maximum 2(S−1).
func StageDelays(s int) []int {
	d := make([]int, s)
	for i := range d {
		d[i] = 2 * (s - 1 - i)
	}
	return d
}

// Mitigation selects the delay-compensation methods applied per stage.
// The zero value is plain PB (no mitigation).
type Mitigation struct {
	// SC enables spike compensation with coefficients a = m^(SCScale·D),
	// b = (1−m^(SCScale·D))/(1−m) per stage (Eq. 14). SCScale 1 is the
	// paper's SCD; 2 is the overcompensating SC2D of Appendix E.
	SC      bool
	SCScale float64
	// LWP enables linear weight prediction at the forward pass with horizon
	// T = LWPScale·D per stage. LWPScale 1 is LWPD; 2 is LWP2D.
	LWP      bool
	LWPForm  optim.LWPForm
	LWPScale float64
	// SpecTrain replaces LWP with SpecTrain-style vertical-sync prediction
	// (Appendix C): every stage predicts to the sample's final update time —
	// horizon 2(S−1)−s on the forward pass and s on the backward pass.
	SpecTrain bool
	// GradShrink, when positive, scales each stage's gradients by
	// GradShrink^D (Zhuang et al. 2019 baseline).
	GradShrink float64
	// WeightStash stores the weights used on the forward pass and reuses
	// them on the backward pass (Harlap et al. 2018), removing weight
	// inconsistency but not gradient delay (Eq. 6).
	WeightStash bool
}

// Named mitigation presets matching the paper's method labels.
var (
	// None is plain pipelined backpropagation.
	None = Mitigation{}
	// SCD is PB + spike compensation with default coefficients.
	SCD = Mitigation{SC: true, SCScale: 1}
	// SC2D doubles the spike-compensation delay (Appendix E).
	SC2D = Mitigation{SC: true, SCScale: 2}
	// LWPvD is PB + velocity-form linear weight prediction, horizon D.
	LWPvD = Mitigation{LWP: true, LWPForm: optim.LWPVelocity, LWPScale: 1}
	// LWPwD is PB + weight-difference-form prediction, horizon D.
	LWPwD = Mitigation{LWP: true, LWPForm: optim.LWPWeight, LWPScale: 1}
	// LWP2D doubles the prediction horizon (Appendix E).
	LWP2D = Mitigation{LWP: true, LWPForm: optim.LWPVelocity, LWPScale: 2}
	// LWPvDSCD is the paper's best method: combined LWPv + SC.
	LWPvDSCD = Mitigation{SC: true, SCScale: 1, LWP: true, LWPForm: optim.LWPVelocity, LWPScale: 1}
	// LWPwDSCD is the weight-form combination (Table 6 comparison).
	LWPwDSCD = Mitigation{SC: true, SCScale: 1, LWP: true, LWPForm: optim.LWPWeight, LWPScale: 1}
	// SpecTrain is the Chen et al. (2018) comparator.
	SpecTrain = Mitigation{SpecTrain: true}
	// WeightStash is PB + weight stashing (Table 2).
	WeightStash = Mitigation{WeightStash: true}
)

// Name returns the paper's label for a mitigation preset.
func (m Mitigation) Name() string {
	switch {
	case m.SpecTrain:
		return "PB+SpecTrain"
	case m.SC && m.LWP:
		base := "PB+LWPv"
		if m.LWPForm == optim.LWPWeight {
			base = "PB+LWPw"
		}
		if m.LWPScale == 2 {
			base += "2D"
		} else {
			base += "D"
		}
		if m.SCScale == 2 {
			return base + "+SC2D"
		}
		return base + "+SCD"
	case m.SC:
		if m.SCScale == 2 {
			return "PB+SC2D"
		}
		return "PB+SCD"
	case m.LWP:
		label := "PB+LWPv"
		if m.LWPForm == optim.LWPWeight {
			label = "PB+LWPw"
		}
		if m.LWPScale == 2 {
			return label + "2D"
		}
		return label + "D"
	case m.GradShrink > 0:
		return "PB+GradShrink"
	case m.WeightStash:
		return "PB+WS"
	default:
		return "PB"
	}
}

// Config carries the training hyperparameters shared by the trainers in
// this package. LR and Momentum should already be scaled for the update
// size (use optim.Scale / ScaledConfig).
type Config struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Schedule multiplies LR per update step; nil means constant.
	Schedule sched.Schedule
	// Mitigation applies to the PB trainer only.
	Mitigation Mitigation
	// Unpooled disables the per-stage buffer arenas, allocating fresh
	// tensors for every operation exactly like the pre-pooling engine. It
	// exists as the reference for the pooled-vs-unpooled trajectory
	// equality tests and for debugging; training is slower but numerically
	// identical.
	Unpooled bool
	// Workers is the engine's compute-worker budget: the total number of
	// concurrently busy goroutines the engine may use for stage compute,
	// split between pipeline-stage concurrency and intra-kernel parallelism
	// (tensor.Parallel). The sequential engine runs stages one at a time, so
	// its whole budget becomes one shared kernel group; the concurrent
	// engines reserve one worker per stage goroutine and spread the
	// remainder as per-stage kernel workers, front-loaded onto the earliest
	// stages (see kernelShares). 0 or 1 disables intra-kernel parallelism.
	// Results are bit-identical at every setting (DESIGN.md §9).
	Workers int
	// Obs, when non-nil, is the metrics bus the engine emits observability
	// events onto (queue depth, staleness, busy time, completions, drain
	// summaries — see internal/obs and DESIGN.md §13). Each event is
	// delivered on the goroutine that emits it (a stage goroutine or the
	// caller of Submit/Drain), so once Drain returns every subscriber has
	// the drain's events. Events never feed the training math: a
	// bus-enabled run is bit-identical to a bus-disabled one. Nil disables
	// emission at the cost of one pointer check per site.
	Obs *obs.Bus
	// StageDelay, when non-nil, is the fault-injection hook (internal/chaos,
	// DESIGN.md §14): it is consulted before every stage forward/backward
	// compute and a positive return stalls that stage's worker for the
	// duration. The stall is wall-clock only — it is applied outside the
	// busy-time accounting windows and never feeds the training math, so a
	// chaos-enabled run of a deterministic engine is bit-identical to a
	// chaos-disabled one (TestStageDelayDoesNotPerturbTraining). The hook may
	// be called from several stage goroutines concurrently and must be
	// re-entrant; decisions should key on the ChaosPoint (never wall-clock)
	// to stay reproducible.
	StageDelay func(ChaosPoint) time.Duration
	// AdmitBound, when positive, bounds the free-running async engine's
	// in-flight samples: Submit stops admitting new samples (harvesting
	// completions instead) while Outstanding() ≥ AdmitBound, so a straggling
	// pipeline back-pressures the driver at a staleness bound of the caller's
	// choice instead of queueing without limit. Deferred admissions are
	// counted in Stats.AdmitDeferred and visible live as driver-level
	// queue_depth events. The stepped engines admit one sample per step and
	// ignore the bound.
	AdmitBound int
}

// ChaosPoint identifies one stage-compute event for the Config.StageDelay
// fault-injection hook: which replica (-1 outside a cluster — the cluster
// rewrites it when building replica engines), which stage, the stage's
// applied-update counter at the point of the call, and whether the stall
// precedes the forward or the backward transformation. Keying injection
// decisions on these coordinates (rather than wall-clock) is what makes a
// chaos schedule reproducible run-to-run.
type ChaosPoint struct {
	Replica  int
	Stage    int
	Update   int
	Backward bool
}

// ScaledConfig builds a Config from reference hyperparameters tuned at
// update size nRef, rescaled to update size n via Eq. 9.
func ScaledConfig(etaRef, mRef float64, nRef, n int) Config {
	eta, m := optim.Scale(etaRef, mRef, nRef, n)
	return Config{LR: eta, Momentum: m}
}

// lrAt returns the scheduled learning rate for an update step.
func (c Config) lrAt(step int) float64 {
	if c.Schedule == nil {
		return c.LR
	}
	return c.Schedule.LR(step)
}

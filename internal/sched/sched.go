// Package sched provides learning-rate schedules: constant, the multi-step
// decay of He et al. (2016a) used by the paper's CIFAR/ImageNet experiments,
// linear warmup (the stabilization the paper's Section 5 discusses for PB
// training). Schedules are functions of the update step.
package sched

// Schedule maps an update step (0-based) to a learning-rate multiplier times
// the base rate.
type Schedule interface {
	LR(step int) float64
}

// Constant returns the same rate at every step.
type Constant struct{ Base float64 }

// LR implements Schedule.
func (c Constant) LR(int) float64 { return c.Base }

// MultiStep multiplies the base rate by Gamma at every milestone, matching
// the step-decay schedule of He et al. (2016a).
type MultiStep struct {
	Base       float64
	Milestones []int
	Gamma      float64
}

// LR implements Schedule.
func (m MultiStep) LR(step int) float64 {
	lr := m.Base
	for _, ms := range m.Milestones {
		if step >= ms {
			lr *= m.Gamma
		}
	}
	return lr
}

// Warmup ramps the rate linearly from Base/Steps to the inner schedule's
// value over the first Steps updates, then follows the inner schedule.
type Warmup struct {
	Inner Schedule
	Steps int
}

// LR implements Schedule.
func (w Warmup) LR(step int) float64 {
	lr := w.Inner.LR(step)
	if step < w.Steps {
		return lr * float64(step+1) / float64(w.Steps)
	}
	return lr
}

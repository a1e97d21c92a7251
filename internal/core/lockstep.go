package core

import (
	"sync"

	"repro/internal/nn"
)

// This file holds the lockstep engine's lanes: one persistent goroutine per
// stage — its own "worker", as in the paper's hardware model (Fig. 1). Each
// sweep of PBTrainer.Step is a barrier: the driver releases every lane into
// the sweep and waits for all of them, so a step is seq's step with its two
// sweeps run concurrently and the weight trajectory is bit-identical.

// lanes is the per-stage barrier of a lockstep PBTrainer. start[i] carries
// the sweep (false = forward, true = backward) to stage i's lane; every lane
// reports completion on done. Closing start retires the lanes.
type lanes struct {
	start   []chan bool
	done    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// newLockstep builds the lockstep engine: the seq trainer's stage state with
// a per-stage kernel-worker split (every stage computes concurrently, so
// each lane counts itself against Config.Workers) and one lane per stage.
func newLockstep(net *nn.Network, cfg Config) *PBTrainer {
	t := newPBTrainer(net, cfg)
	t.pars = attachPerStageKernelWorkers(t.stages, cfg.Workers)
	t.lanes = &lanes{start: make([]chan bool, len(t.stages)), done: make(chan struct{})}
	for i := range t.stages {
		t.lanes.start[i] = make(chan bool)
		t.lanes.wg.Add(1)
		go t.lane(i)
	}
	return t
}

// lane is stage i's goroutine: it runs its half of each released sweep,
// touching only stage-local state and its slots in the next-step buffers.
func (t *PBTrainer) lane(i int) {
	l := t.lanes
	defer l.wg.Done()
	// The barrier is synchronously paired: sweep sends once to every lane
	// and then receives exactly one done per lane, so neither side can
	// wedge; the shutdown signal is stop closing start (not a ctx).
	//lint:allow(ctxselect) barrier receive is paired with sweep's send; stop closes the channel
	for backward := range l.start[i] {
		if backward {
			t.backwardStage(i)
		} else {
			t.forwardStage(i)
		}
		l.done <- struct{}{} //lint:allow(ctxselect) paired with sweep's done receives
	}
}

// sweep releases every lane into one half-step and waits for all of them.
func (l *lanes) sweep(backward bool) {
	if l.stopped {
		panic("core: Step after Close")
	}
	for _, c := range l.start {
		c <- backward
	}
	for range l.start {
		<-l.done
	}
}

// stop retires the lanes. Idempotent.
func (l *lanes) stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	for _, c := range l.start {
		close(c)
	}
	l.wg.Wait()
}

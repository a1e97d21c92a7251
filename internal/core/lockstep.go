package core

import (
	"sync"

	"repro/internal/nn"
)

// This file holds the lockstep engine's lanes: one persistent goroutine per
// stage — its own "worker", as in the paper's hardware model (Fig. 1). Each
// sweep of PBTrainer.Step is a barrier: the driver releases every lane into
// the sweep and waits for all of them, so a step is seq's step with its
// sweeps run concurrently and the weight trajectory is bit-identical.

// lanes is the per-stage barrier of a lockstep PBTrainer. start[i] carries
// the sweep's per-stage function to stage i's lane; every lane reports
// completion on done. Closing start retires the lanes.
type lanes struct {
	start   []chan func(int)
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
	t.lanes = &lanes{start: make([]chan func(int), len(t.stages)), done: make(chan struct{})}
	for i := range t.stages {
		t.lanes.start[i] = make(chan func(int))
		t.lanes.wg.Add(1)
		go t.lane(i)
	}
	return t
}

// lane is stage i's goroutine: it runs stage i's part of each released
// sweep, touching only stage i's state (on a sync-grad cluster's update
// sweep, stage i of every replica) and its slots in the next-step buffers.
func (t *PBTrainer) lane(i int) {
	l := t.lanes
	defer l.wg.Done()
	// The barrier is synchronously paired: release sends once to every lane
	// and wait then receives exactly one done per lane, so neither side can
	// wedge; the shutdown signal is stop closing start (not a ctx).
	//lint:allow(ctxselect) barrier receive is paired with release's send; stop closes the channel
	for f := range l.start[i] {
		f(i)
		l.done <- struct{}{} //lint:allow(ctxselect) paired with wait's done receives
	}
}

// release starts every lane on one sweep. Each release must be followed by
// one wait before the next release.
func (l *lanes) release(f func(int)) {
	if l.stopped {
		panic("core: Step after Close")
	}
	for _, c := range l.start {
		c <- f
	}
}

// wait returns once every lane has finished the released sweep.
func (l *lanes) wait() {
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

// Package checkpoint serializes training state so long PB runs can stop and
// resume. The format is encoding/gob over a versioned envelope keyed by
// parameter name, which survives refactorings that keep parameter names
// stable and rejects mismatched architectures loudly.
//
// There is one layout: a snapshot is R replicas × S stages. Each replica
// holds its weights, its schedule position and, per pipeline stage, the
// stage optimizer's velocities, its previous weights (LWPw) and its update
// counter — the per-stage state that drives the D_s-dependent mitigation
// coefficients and the LR schedule. A sync header (policy, interval, sync
// clock, shard cursor) completes a replicated run. A bare engine is one
// replica with an empty policy (the Pipeline view); the SGDM reference is one
// replica with one stage holding every parameter (the SGDM view).
//
// There is one path each way: Capture/Restore over the ClusterTrainer
// surface, Write/Read for files, and RestoreForward for the weights-only
// view an inference engine loads. Save and LoadForward compose them for a
// caller holding one network.
package checkpoint

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/nn"
	"repro/internal/optim"
)

// Version is bumped on incompatible format changes. Version 4 is the one
// R × S layout; the older single-optimizer (1), pipeline (2) and cluster (3)
// layouts are no longer readable.
const Version = 4

// Buffer is one parameter-sized buffer, named after its parameter.
// Snapshots hold buffers in slices, not maps: gob sizes a decoded map by its
// encoded count before reading any entry, so a few hostile bytes could
// demand gigabytes, while a slice grows only with the bytes that arrive.
type Buffer struct {
	Name   string
	Values []float64
}

// StageState is the serialized optimizer state of one pipeline stage.
type StageState struct {
	// Velocities holds the momentum buffers of the stage's parameters.
	// Parameters that have not been updated yet are absent.
	Velocities []Buffer
	// PrevWeights holds the weights before the stage's most recent update.
	// Only present when the optimizer tracks them (LWPw).
	PrevWeights []Buffer
	// Updates is the stage's applied-update counter (drives the per-stage
	// LR schedule position in the free-running engine).
	Updates int
}

// Replica is the serialized training state of one pipeline: its weights,
// its per-stage optimizer state and its global schedule position.
type Replica struct {
	Weights []Buffer
	Stages  []StageState
	Step    int
}

// State is the serialized form of a training snapshot.
type State struct {
	Version int
	// Meta carries free-form run metadata (engine, epoch, scale, seed...).
	Meta map[string]string
	// Policy and Interval identify the weight-sync policy; restore refuses a
	// mismatch (the sync cadence is part of the algorithm). A bare engine
	// has an empty Policy.
	Policy   string
	Interval int
	// Syncs counts completed sync operations (the sync clock); Submitted is
	// the global sample cursor (next replica = Submitted mod R); LastSync is
	// the cursor at the most recent sync.
	Syncs     int
	Submitted int
	LastSync  int
	// Replicas holds each pipeline's full state, replica-indexed.
	Replicas []Replica
}

// PipelineTrainer is the per-replica engine surface: stage-indexed access to
// parameters, optimizers and update counters, plus the global schedule
// position. Every built-in engine implements it; the pipeline must be
// quiesced (drained) around Capture and Restore.
type PipelineTrainer interface {
	NumStages() int
	StageParams(i int) []*nn.Param
	StageOptimizer(i int) *optim.Momentum
	StageUpdates(i int) int
	SetStageUpdates(i, updates int)
	UpdateStep() int
	SetUpdateStep(step int)
}

// ClusterTrainer is the surface Capture and Restore work on: replica-indexed
// networks and pipeline trainers plus the sync clock and shard cursor.
// *core.Cluster implements it; Pipeline and SGDM view a single engine as one
// replica. ReplicaEngine is typed any so the core package needs no
// checkpoint import — the returned engine must implement PipelineTrainer.
type ClusterTrainer interface {
	Replicas() int
	ReplicaNet(i int) *nn.Network
	ReplicaEngine(i int) any
	PolicyName() string
	PolicyInterval() int
	ClusterCursor() (submitted, syncs, lastSync int)
	SetClusterCursor(submitted, syncs, lastSync int)
}

// Pipeline views a bare engine as a one-replica cluster with no sync policy.
// Like a cluster's ReplicaEngine, Engine must implement PipelineTrainer;
// Capture and Restore report one that does not.
type Pipeline struct {
	Net    *nn.Network
	Engine any
}

func (Pipeline) Replicas() int                                   { return 1 }
func (p Pipeline) ReplicaNet(int) *nn.Network                    { return p.Net }
func (p Pipeline) ReplicaEngine(int) any                         { return p.Engine }
func (Pipeline) PolicyName() string                              { return "" }
func (Pipeline) PolicyInterval() int                             { return 0 }
func (Pipeline) ClusterCursor() (submitted, syncs, lastSync int) { return 0, 0, 0 }
func (Pipeline) SetClusterCursor(submitted, syncs, lastSync int) {}

// SGDM views a single-optimizer trainer (the SGDM reference) as one replica
// with one stage holding every parameter. opt may be nil to capture weights
// only. step is the trainer's schedule position: Capture reads it and Restore
// writes it.
func SGDM(net *nn.Network, opt *optim.Momentum, step *int) Pipeline {
	if opt == nil {
		opt = optim.NewMomentum(0, 0) // tracks nothing: no velocities captured
	}
	return Pipeline{Net: net, Engine: sgdm{params: net.Params(), opt: opt, step: step}}
}

// sgdm is the one-stage PipelineTrainer behind SGDM.
type sgdm struct {
	params []*nn.Param
	opt    *optim.Momentum
	step   *int
}

func (sgdm) NumStages() int                       { return 1 }
func (m sgdm) StageParams(int) []*nn.Param        { return m.params }
func (m sgdm) StageOptimizer(int) *optim.Momentum { return m.opt }
func (sgdm) StageUpdates(int) int                 { return 0 }
func (sgdm) SetStageUpdates(int, int)             {}
func (m sgdm) UpdateStep() int                    { return *m.step }
func (m sgdm) SetUpdateStep(step int)             { *m.step = step }

// replicaPipeline asserts replica i's engine down to PipelineTrainer.
func replicaPipeline(ct ClusterTrainer, i int) (PipelineTrainer, error) {
	tr, ok := ct.ReplicaEngine(i).(PipelineTrainer)
	if !ok {
		return nil, fmt.Errorf("checkpoint: replica %d engine (%T) does not support checkpointing", i, ct.ReplicaEngine(i))
	}
	return tr, nil
}

// Capture snapshots every replica's weights, per-stage optimizer state and
// schedule position, plus the sync clock and shard cursor. It never mutates
// an optimizer: only buffers that exist are copied. Every replica must be
// quiesced.
func Capture(ct ClusterTrainer, meta map[string]string) (*State, error) {
	submitted, syncs, lastSync := ct.ClusterCursor()
	st := &State{
		Version:   Version,
		Meta:      meta,
		Policy:    ct.PolicyName(),
		Interval:  ct.PolicyInterval(),
		Syncs:     syncs,
		Submitted: submitted,
		LastSync:  lastSync,
		Replicas:  make([]Replica, ct.Replicas()),
	}
	for i := range st.Replicas {
		tr, err := replicaPipeline(ct, i)
		if err != nil {
			return nil, err
		}
		var weights []Buffer
		seen := map[string]bool{}
		for _, p := range ct.ReplicaNet(i).Params() {
			if seen[p.Name] {
				return nil, fmt.Errorf("checkpoint: duplicate parameter name %q", p.Name)
			}
			seen[p.Name] = true
			weights = append(weights, Buffer{p.Name, p.Snapshot()})
		}
		st.Replicas[i] = Replica{Weights: weights, Stages: captureStages(tr), Step: tr.UpdateStep()}
	}
	return st, nil
}

// captureStages copies a trainer's per-stage optimizer state.
func captureStages(tr PipelineTrainer) []StageState {
	stages := make([]StageState, tr.NumStages())
	for i := range stages {
		stages[i].Updates = tr.StageUpdates(i)
		opt := tr.StageOptimizer(i)
		for _, p := range tr.StageParams(i) {
			if v := opt.VelIfTracked(p); v != nil {
				stages[i].Velocities = append(stages[i].Velocities, Buffer{p.Name, slices.Clone(v)})
			}
			if w := opt.PrevIfTracked(p); w != nil {
				stages[i].PrevWeights = append(stages[i].PrevWeights, Buffer{p.Name, slices.Clone(w)})
			}
		}
	}
	return stages
}

// checkVersion rejects every layout but the current one.
func checkVersion(v int) error {
	if v != Version {
		return fmt.Errorf("checkpoint: snapshot is version %d, this build reads only version %d", v, Version)
	}
	return nil
}

// Restore loads a snapshot into a freshly constructed (or drained) trainer:
// every replica's weights, per-stage optimizer state and schedule position,
// plus the sync clock and shard cursor. The trainer must match the
// snapshot's replica count, sync policy and interval, and each replica its
// stage decomposition and parameter names. Every replica is checked before
// anything is written, so a rejected snapshot leaves the trainer untouched.
func Restore(st *State, ct ClusterTrainer) error {
	if err := checkVersion(st.Version); err != nil {
		return err
	}
	if len(st.Replicas) != ct.Replicas() {
		return fmt.Errorf("checkpoint: snapshot has %d replicas (policy %q), trainer has %d (policy %q)",
			len(st.Replicas), st.Policy, ct.Replicas(), ct.PolicyName())
	}
	if st.Policy != ct.PolicyName() || st.Interval != ct.PolicyInterval() {
		return fmt.Errorf("checkpoint: snapshot was taken under policy %q (interval %d), trainer runs %q (interval %d)",
			st.Policy, st.Interval, ct.PolicyName(), ct.PolicyInterval())
	}
	if st.Submitted < 0 || st.Syncs < 0 || st.LastSync < 0 {
		return fmt.Errorf("checkpoint: negative cursor (submitted %d, syncs %d, last sync %d)", st.Submitted, st.Syncs, st.LastSync)
	}
	for _, write := range []bool{false, true} {
		for i := range st.Replicas {
			tr, err := replicaPipeline(ct, i)
			if err != nil {
				return err
			}
			if err := loadReplica(&st.Replicas[i], ct.ReplicaNet(i), tr, write); err != nil {
				return fmt.Errorf("checkpoint: replica %d: %w", i, err)
			}
		}
	}
	ct.SetClusterCursor(st.Submitted, st.Syncs, st.LastSync)
	return nil
}

// loadWeights checks that bufs hold every parameter of net with its size
// and, when write is set, loads them. Restore and RestoreForward run every
// check with write unset first, so a load is all-or-nothing. Of two buffers
// with one name the last wins, in both passes alike.
func loadWeights(bufs []Buffer, net *nn.Network, write bool) error {
	weights := make(map[string][]float64, len(bufs))
	for _, b := range bufs {
		weights[b.Name] = b.Values
	}
	for _, p := range net.Params() {
		w, ok := weights[p.Name]
		if !ok {
			return fmt.Errorf("missing parameter %q", p.Name)
		}
		if len(w) != p.W.Size() {
			return fmt.Errorf("parameter %q has %d values, want %d", p.Name, len(w), p.W.Size())
		}
		if write {
			p.SetData(w)
		}
	}
	return nil
}

// loadReplica checks one replica's state against its network and trainer
// and, when write is set, loads it (see loadWeights).
func loadReplica(r *Replica, net *nn.Network, tr PipelineTrainer, write bool) error {
	if len(r.Stages) != tr.NumStages() {
		return fmt.Errorf("snapshot has %d stages, trainer has %d", len(r.Stages), tr.NumStages())
	}
	if r.Step < 0 {
		return fmt.Errorf("negative schedule position %d", r.Step)
	}
	if err := loadWeights(r.Weights, net, write); err != nil {
		return err
	}
	for i, ss := range r.Stages {
		if ss.Updates < 0 {
			return fmt.Errorf("stage %d has negative update count %d", i, ss.Updates)
		}
		// Every saved buffer must belong to a parameter of the SAME stage:
		// a shifted stage boundary (same depth, different partitioning)
		// would otherwise restore "successfully" with silently zeroed
		// momentum for the moved parameters.
		params := make(map[string]*nn.Param, len(tr.StageParams(i)))
		for _, p := range tr.StageParams(i) {
			params[p.Name] = p
		}
		opt := tr.StageOptimizer(i)
		for _, kind := range []struct {
			name string
			bufs []Buffer
			dst  func(*nn.Param) []float64
		}{{"velocity", ss.Velocities, opt.Vel}, {"prev weights", ss.PrevWeights, opt.Prev}} {
			for _, b := range kind.bufs {
				p, ok := params[b.Name]
				if !ok {
					return fmt.Errorf("stage %d holds %s for %q, which is not in that stage (different partitioning?)", i, kind.name, b.Name)
				}
				if len(b.Values) != p.W.Size() {
					return fmt.Errorf("stage %d %s %q has %d values, want %d", i, kind.name, b.Name, len(b.Values), p.W.Size())
				}
				if write {
					copy(kind.dst(p), b.Values)
				}
			}
		}
		if write {
			tr.SetStageUpdates(i, ss.Updates)
		}
	}
	if write {
		tr.SetUpdateStep(r.Step)
	}
	return nil
}

// RestoreForward loads only replica 0's weights into net — the read-only
// view an inference engine needs — and never touches optimizer or schedule
// state. Like Restore it checks every parameter before writing any.
func RestoreForward(st *State, net *nn.Network) error {
	if err := checkVersion(st.Version); err != nil {
		return err
	}
	if len(st.Replicas) == 0 {
		return fmt.Errorf("checkpoint: snapshot holds no replica")
	}
	if err := loadWeights(st.Replicas[0].Weights, net, false); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return loadWeights(st.Replicas[0].Weights, net, true)
}

// LoadForward reads the snapshot at path and restores only its weights into
// net (see RestoreForward).
func LoadForward(path string, net *nn.Network) (*State, error) {
	st, err := Read(path)
	if err != nil {
		return nil, err
	}
	if err := RestoreForward(st, net); err != nil {
		return nil, err
	}
	return st, nil
}

// Save writes a snapshot of a single-optimizer trainer (the SGDM view) to
// path. opt may be nil to save weights only.
func Save(path string, net *nn.Network, opt *optim.Momentum, step int, meta map[string]string) error {
	st, err := Capture(SGDM(net, opt, &step), meta)
	if err != nil {
		return err
	}
	return Write(path, st)
}

// Write encodes st to path atomically and durably: it writes a temporary
// file, syncs it, renames it over path and then syncs the directory, so a
// failed or interrupted save leaves the previous snapshot intact.
func Write(path string, st *State) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = gob.NewEncoder(f).Encode(st); err != nil {
		err = fmt.Errorf("checkpoint: encode: %w", err)
	} else {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read decodes the snapshot at path, rejecting every version but Version.
func Read(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decode(f)
}

// decode is the one decoder of snapshot bytes.
func decode(r io.Reader) (*State, error) {
	// A non-nil Meta makes gob fill it in place rather than size a fresh
	// map by its untrusted count.
	st := State{Meta: map[string]string{}}
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if err := checkVersion(st.Version); err != nil {
		return nil, err
	}
	return &st, nil
}

package train

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// This file is the serving facade: the same Builder the training facade
// consumes, wired to the forward-only inference engine (core.Infer) instead
// of a trainer. A Server never runs backward passes; checkpoints are
// restored read-only into a private loader network and published to the
// engine as immutable weight sets, so a hot swap never disturbs in-flight
// requests.

// ServerConfig configures NewServer.
type ServerConfig struct {
	// Engine names the inference engine. There is one, the in-caller forward
	// (core.Infer); "", "pipelined" and "direct" all select it, and any other
	// value is an error. The two names remain for callers that still pass
	// them.
	Engine string
	// Replicas is the number of serialized forward replicas sharing the
	// weight set (default 1).
	Replicas int
	// KernelWorkers is the total kernel-worker budget, split across
	// replicas.
	KernelWorkers int
	// Unpooled disables arena pooling (reference mode).
	Unpooled bool
	// Seed is passed to the Builder (default 1). The built weights serve as
	// the initial weight set until a checkpoint is loaded.
	Seed int64
	// Checkpoint, when non-empty, is loaded (any version v1–v3) before the
	// server accepts requests.
	Checkpoint string
	// Obs, when non-nil, attaches the metrics bus to the inference engine:
	// lifetime completion counters stream onto it (see train.WithObserver
	// for the training-side equivalent). The caller owns the bus.
	Obs *obs.Bus
	// DType selects the serving dtype: tensor.F64 (zero value, the bit-exact
	// oracle) or tensor.F32 (SIMD kernel path). Checkpoints stay canonical
	// f64 on disk; an f32 server narrows each value once at load
	// (Param.SetData), so the published weights are the deterministic
	// float32 cast of the snapshot. Inputs of either dtype are accepted and
	// converted at admission; logits come back at the serving dtype.
	DType tensor.DType
}

// Server is the forward-only serving facade over a Builder.
type Server struct {
	eng *core.Infer
	// loader is a private network used only to decode checkpoints into; it
	// is never installed into the engine, so restoring into it cannot
	// corrupt the weight views live requests are reading.
	loader *nn.Network
	mu     sync.Mutex // serializes checkpoint loads/swaps
}

// NewServer builds the replica networks (weight-identical, like the training
// cluster) and the inference engine behind them.
func NewServer(build Builder, cfg ServerConfig) (*Server, error) {
	if build == nil {
		return nil, errors.New("train: nil Builder")
	}
	switch cfg.Engine {
	case "", "pipelined", "direct":
	default:
		return nil, fmt.Errorf("train: unknown ServerConfig.Engine %q (want \"\", \"pipelined\" or \"direct\")", cfg.Engine)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	buildOne := func() (*nn.Network, error) {
		net := build(seed)
		if net == nil {
			return nil, errors.New("train: Builder returned a nil network")
		}
		return net, nil
	}
	if cfg.DType != tensor.F64 && cfg.DType != tensor.F32 {
		return nil, errors.New("train: ServerConfig.DType must be tensor.F64 or tensor.F32")
	}
	loader, err := buildOne()
	if err != nil {
		return nil, err
	}
	snap := loader.SnapshotWeights()
	nets := make([]*nn.Network, cfg.Replicas)
	for i := range nets {
		ni, err := buildOne()
		if err != nil {
			return nil, err
		}
		ni.RestoreWeights(snap)
		ni.ConvertTo(cfg.DType)
		nets[i] = ni
	}
	// The loader holds the engine dtype too: checkpoint restores narrow each
	// f64 value through Param.SetData, so CaptureWeights publishes f32 sets
	// directly.
	loader.ConvertTo(cfg.DType)
	eng, err := core.NewInfer(nets, core.InferConfig{
		Workers:  cfg.KernelWorkers,
		Unpooled: cfg.Unpooled,
		Obs:      cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, loader: loader}
	if cfg.Checkpoint != "" {
		if _, err := s.LoadCheckpoint(cfg.Checkpoint); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return s, nil
}

// Infer runs one input tensor (a sample or a coalesced micro-batch
// [N, ...]) through the network and returns the caller-owned logits.
func (s *Server) Infer(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.eng.Infer(ctx, x)
}

// LoadCheckpoint hot-swaps the published weights to the snapshot at path
// (any version v1–v3) without dropping in-flight requests. It returns the
// displaced weight set, whose InUse count drains to zero once every request
// admitted under it has completed.
func (s *Server) LoadCheckpoint(path string) (*core.WeightSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := checkpoint.LoadForward(path, s.loader); err != nil {
		return nil, err
	}
	return s.eng.Swap(core.CaptureWeights(s.loader))
}

// SwapState hot-swaps to an in-memory snapshot — the same publication
// protocol as LoadCheckpoint without the file round-trip (used by tests and
// co-located trainers).
func (s *Server) SwapState(st *checkpoint.State) (*core.WeightSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkpoint.RestoreForward(st, s.loader); err != nil {
		return nil, err
	}
	return s.eng.Swap(core.CaptureWeights(s.loader))
}

// Stats returns the engine's counter snapshot.
func (s *Server) Stats() core.InferStats { return s.eng.Stats() }

// Weights returns the currently published weight set (see
// core.Infer.Weights).
func (s *Server) Weights() *core.WeightSet { return s.eng.Weights() }

// Close shuts the engine down. Callers that need a zero-drop shutdown must
// drain their admission path first (internal/serve does).
func (s *Server) Close() { s.eng.Close() }

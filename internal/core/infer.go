package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// This file is the serving side of the forward/update split (DESIGN.md §12):
// a forward-only engine that drives the exact same per-stage forward math as
// the trainers (stage.go forwardInfer) but carries no backward pass, no
// optimizer, and no per-inflight context FIFOs. It runs every stage in the
// calling goroutine: the serving tier holds one batch in flight at a time, so
// a stage pipeline would never fill. Weights live in immutable
// reference-counted WeightSets shared by every replica; a hot swap atomically
// publishes a new set while in-flight requests finish on the version they
// were admitted with.

// ErrInferClosed is returned by Infer once the engine has been closed.
var ErrInferClosed = errors.New("core: infer engine closed")

// WeightSet is an immutable snapshot of a network's weights, organized per
// stage in parameter order. All inference replicas read the same underlying
// slices — forward compute never writes parameter storage — and a reference
// count tracks how many in-flight requests (plus at most one publication
// slot) still pin the set, which is what the hot-swap leak tests assert on.
type WeightSet struct {
	names [][]string
	dtype tensor.DType
	// Exactly one of datas/datas32 is populated, matching dtype.
	datas   [][][]float64
	datas32 [][][]float32
	refs    atomic.Int64
}

// CaptureWeights deep-copies net's current weights into a WeightSet at the
// network's own dtype. The source network is not retained; mutating it later
// does not affect the set.
func CaptureWeights(net *nn.Network) *WeightSet {
	n := net.NumStages()
	ws := &WeightSet{
		names: make([][]string, n),
		dtype: net.DType(),
	}
	if ws.dtype == tensor.F32 {
		ws.datas32 = make([][][]float32, n)
	} else {
		ws.datas = make([][][]float64, n)
	}
	for s := 0; s < n; s++ {
		ps := net.StageParams(s)
		ws.names[s] = make([]string, len(ps))
		if ws.dtype == tensor.F32 {
			ws.datas32[s] = make([][]float32, len(ps))
			for j, p := range ps {
				ws.names[s][j] = p.Name
				ws.datas32[s][j] = append([]float32(nil), p.W.Data32()...)
			}
			continue
		}
		ws.datas[s] = make([][]float64, len(ps))
		for j, p := range ps {
			ws.names[s][j] = p.Name
			ws.datas[s][j] = append([]float64(nil), p.W.Data...)
		}
	}
	return ws
}

// DType reports the element type the set's weights are stored at.
func (ws *WeightSet) DType() tensor.DType { return ws.dtype }

// stageCount returns the number of stages the set covers.
func (ws *WeightSet) stageCount() int { return len(ws.names) }

// paramLen returns the value count of stage s's parameter j.
func (ws *WeightSet) paramLen(s, j int) int {
	if ws.dtype == tensor.F32 {
		return len(ws.datas32[s][j])
	}
	return len(ws.datas[s][j])
}

func (ws *WeightSet) retain() { ws.refs.Add(1) }

func (ws *WeightSet) release() {
	if ws.refs.Add(-1) < 0 {
		panic("core: WeightSet released more often than retained")
	}
}

// InUse reports how many references (in-flight requests plus the engine's
// publication slot) still pin the set. A swapped-out set drains to zero once
// every request admitted under it has completed.
func (ws *WeightSet) InUse() int64 { return ws.refs.Load() }

// matches validates the set against an expected per-stage parameter layout
// and dtype.
func (ws *WeightSet) matches(names [][]string, sizes [][]int, dt tensor.DType) error {
	if ws.dtype != dt {
		return fmt.Errorf("core: weight set dtype %s, engine runs %s", ws.dtype, dt)
	}
	if ws.stageCount() != len(names) {
		return fmt.Errorf("core: weight set has %d stages, want %d", ws.stageCount(), len(names))
	}
	for s := range names {
		if len(ws.names[s]) != len(names[s]) {
			return fmt.Errorf("core: weight set stage %d has %d params, want %d", s, len(ws.names[s]), len(names[s]))
		}
		for j := range names[s] {
			if ws.names[s][j] != names[s][j] {
				return fmt.Errorf("core: weight set stage %d param %d is %q, want %q", s, j, ws.names[s][j], names[s][j])
			}
			if ws.paramLen(s, j) != sizes[s][j] {
				return fmt.Errorf("core: weight set param %q has %d values, want %d", ws.names[s][j], ws.paramLen(s, j), sizes[s][j])
			}
		}
	}
	return nil
}

// InferStats is a point-in-time snapshot of an inference engine's counters.
type InferStats struct {
	Stages    int
	Replicas  int
	Submitted int64
	Completed int64
	Swaps     int64
}

// InferConfig configures an inference engine.
type InferConfig struct {
	// Workers is the total kernel-worker budget, split across replicas
	// (workers.go replicaShares); each replica's share is the intra-kernel
	// worker group its forward passes run on. 0 = serial.
	Workers int
	// Unpooled disables arena pooling (the allocate-everything reference
	// path, bit-identical to the pooled one).
	Unpooled bool
	// Obs, when non-nil, is the metrics bus the engine emits lifetime
	// completion events onto (internal/obs). Emission runs in the request's
	// goroutine, never waits on a subscriber and never changes the logits.
	Obs *obs.Bus
}

// inferReplica is one serialized forward path: all stages run in the
// caller's goroutine under the replica lock and share one arena, so a buffer
// one stage releases is there for the next stage, and the next request, to
// reuse.
type inferReplica struct {
	mu     sync.Mutex
	stages []nn.Stage
	params [][]*nn.Param
	cur    *WeightSet
	arena  *tensor.Arena
	par    *tensor.Parallel
}

// Infer is the forward-only serving engine. Each request runs the whole
// forward pass inline in the calling goroutine on one replica, picked
// round-robin; a replica serves one request at a time. It spawns no
// goroutines of its own (only the replicas' kernel-worker groups).
type Infer struct {
	weights atomic.Pointer[WeightSet]
	// names/sizes/dtype are the network's expected parameter layout,
	// captured at construction and used to validate swapped-in sets.
	names [][]string
	sizes [][]int
	dtype tensor.DType

	reps   []*inferReplica
	next   atomic.Uint64
	closed atomic.Bool
	once   sync.Once

	submitted atomic.Int64
	completed atomic.Int64
	swaps     atomic.Int64
	// obs is InferConfig.Obs: it receives completion events.
	obs *obs.Bus
}

// NewInfer builds the engine over R weight-identical replica networks (one
// replica per net). The engine takes ownership of the nets: their parameter
// storage is pointer-swapped to the published WeightSet, so the nets must
// not be trained or served through another engine afterwards.
func NewInfer(nets []*nn.Network, cfg InferConfig) (*Infer, error) {
	if len(nets) == 0 {
		return nil, errors.New("core: infer engine needs at least one network")
	}
	if err := validateReplicaNets(nets); err != nil {
		return nil, err
	}
	e := &Infer{obs: cfg.Obs}
	net := nets[0]
	n := net.NumStages()
	e.dtype = net.DType()
	e.names = make([][]string, n)
	e.sizes = make([][]int, n)
	for s := 0; s < n; s++ {
		ps := net.StageParams(s)
		e.names[s] = make([]string, len(ps))
		e.sizes[s] = make([]int, len(ps))
		for j, p := range ps {
			e.names[s][j] = p.Name
			e.sizes[s][j] = p.W.Size()
		}
	}
	ws := CaptureWeights(net)
	ws.retain() // the publication slot's reference
	e.weights.Store(ws)

	repBudget := replicaShares(cfg.Workers, len(nets))
	for r, net := range nets {
		rep := &inferReplica{par: tensor.NewParallel(repBudget[r])}
		if !cfg.Unpooled {
			rep.arena = tensor.NewArena()
		}
		for s := 0; s < n; s++ {
			rep.stages = append(rep.stages, net.Stages[s])
			rep.params = append(rep.params, net.StageParams(s))
		}
		e.reps = append(e.reps, rep)
	}
	return e, nil
}

// acquire pins the currently published weight set for one request. The
// retain/re-check loop closes the race against a concurrent Swap releasing
// the set between the load and the retain.
func (e *Infer) acquire() *WeightSet {
	for {
		ws := e.weights.Load()
		ws.retain()
		if e.weights.Load() == ws {
			return ws
		}
		ws.release()
	}
}

// installStageWeights pointer-swaps stage idx's parameters onto ws's storage,
// dispatching on the set's dtype.
func installStageWeights(ws *WeightSet, idx int, params []*nn.Param) {
	if ws.dtype == tensor.F32 {
		view := ws.datas32[idx]
		for j, p := range params {
			p.SwapData32(view[j])
		}
		return
	}
	view := ws.datas[idx]
	for j, p := range params {
		p.SwapData(view[j])
	}
}

// Infer runs one input tensor (a sample or a coalesced micro-batch
// [N, ...]) through the network and returns a caller-owned logits tensor.
// The input tensor moves into the engine. After Close it fails with
// ErrInferClosed; a request already running when Close is called finishes
// first.
func (e *Infer) Infer(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	x = x.ConvertTo(e.dtype) // feeders supply f64; identity when dtypes match
	ws := e.acquire()
	defer ws.release()
	rep := e.reps[int(e.next.Add(1)-1)%len(e.reps)]
	rep.mu.Lock()
	defer rep.mu.Unlock()
	// Close takes every replica lock before closing its kernel-worker group,
	// so a request that sees the engine open here finishes on a live group.
	if e.closed.Load() {
		return nil, ErrInferClosed
	}
	e.submitted.Add(1)
	if ws != rep.cur {
		for s, ps := range rep.params {
			installStageWeights(ws, s, ps)
		}
		rep.cur = ws
	}
	p := nn.NewPacket(x)
	for _, st := range rep.stages {
		p = forwardInfer(st, p, rep.arena, rep.par)
	}
	if len(p.Skips) != 0 {
		panic("core: infer pipeline finished with a non-empty skip stack")
	}
	logits := tensor.NewDT(p.X.DType(), p.X.Shape...)
	logits.CopyFrom(p.X)
	rep.arena.Put(p.X)
	done := e.completed.Add(1)
	e.obs.Emit(obs.Event{Kind: obs.KindInferDone, Stage: -1, Count: done})
	return logits, nil
}

// Swap validates ws against the engine's parameter layout and atomically
// publishes it without dropping in-flight requests. It returns the displaced
// set so callers can watch its references drain.
func (e *Infer) Swap(ws *WeightSet) (*WeightSet, error) {
	if err := ws.matches(e.names, e.sizes, e.dtype); err != nil {
		return nil, err
	}
	ws.retain()
	old := e.weights.Swap(ws)
	old.release()
	e.swaps.Add(1)
	return old, nil
}

// Weights returns the currently published set (not retained: callers that
// need to hold it across a swap must go through Infer, which pins per
// request).
func (e *Infer) Weights() *WeightSet { return e.weights.Load() }

// Stats snapshots the engine's counters.
func (e *Infer) Stats() InferStats {
	return InferStats{
		Stages:    len(e.names),
		Replicas:  len(e.reps),
		Submitted: e.submitted.Load(),
		Completed: e.completed.Load(),
		Swaps:     e.swaps.Load(),
	}
}

// Close waits for the requests already running, closes the kernel-worker
// groups and drops the publication reference. Idempotent; later Infer calls
// fail with ErrInferClosed. Callers that need a zero-drop shutdown must stop
// submitting first (the serve layer's drain does exactly that).
func (e *Infer) Close() {
	e.once.Do(func() {
		e.closed.Store(true)
		for _, rep := range e.reps {
			rep.mu.Lock()
			rep.par.Close()
			rep.mu.Unlock()
		}
		e.weights.Load().release()
	})
}

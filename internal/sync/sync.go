// Package sync implements the pluggable weight-synchronization policies of
// the replicated-pipeline cluster engine (core.Cluster): given R pipeline
// replicas — each a full copy of the network with its own per-stage
// optimizers — a Policy decides how (and how often) their parameter state is
// coordinated. Three policies ship:
//
//   - "none": fully independent replicas on disjoint sample shards. The
//     throughput ceiling, and the ensemble setting (replicas may even start
//     from different initializations).
//   - "avg-every-k": local-SGD-style periodic parameter averaging. Every k
//     samples per replica the cluster quiesces all pipelines and the policy
//     replaces every replica's weights, momentum velocities and (when
//     tracked) previous weights with the element-wise mean across replicas,
//     summed in replica-index order so the result is deterministic.
//   - "sync-grad": per-update gradient averaging. The cluster steps the
//     replicas in rounds of one sample each: every replica computes its
//     stage gradients and holds them, then each stage's gradient is
//     replaced by the mean across replicas before the optimizer applies it
//     — the replicated-stage coordination of PipeDream-2BW (Narayanan et
//     al. 2021), which keeps all replicas bit-identical and makes PB with R
//     replicas a well-defined algorithm (effective update size R per stage
//     update) at any R.
//
// The policies only touch state through the Replica interface, which every
// core engine already satisfies, so the package stays independent of the
// engine scheduling machinery. DESIGN.md §10 derives what each policy
// converges to and the cluster's R=1 equivalence argument.
package sync

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/nn"
	"repro/internal/optim"
)

// Replica is the per-replica view a Policy coordinates: stage-indexed access
// to the parameters and optimizer state of one pipeline, and its
// LR-schedule position. Both engine types, PBTrainer (seq, lockstep) and
// AsyncPBTrainer (async), satisfy it. Policies are only invoked with every
// replica quiesced (drained), so plain reads and writes are safe.
type Replica interface {
	NumStages() int
	StageParams(i int) []*nn.Param
	StageOptimizer(i int) *optim.Momentum
	StageUpdates(i int) int
	SetStageUpdates(i, updates int)
	UpdateStep() int
	SetUpdateStep(step int)
}

// Policy coordinates the parameter state of pipeline replicas. Implementations
// must be deterministic: given the same replica states, Sync must produce the
// same result bit for bit (average in replica-index order, never by map or
// completion order).
type Policy interface {
	// Name is the policy's CLI selector (also recorded in checkpoints, which
	// refuse to restore under a different policy).
	Name() string
	// Interval is k: the cluster quiesces all replicas and calls Sync after
	// every k samples per replica. 0 disables periodic syncs.
	Interval() int
	// GradReduce reports whether the cluster must step the replicas in
	// rounds with per-update gradient averaging (sync-grad). Such policies
	// need a stepped inner engine ("seq" or "lockstep") at R > 1; with a
	// single replica the rounds never engage.
	GradReduce() bool
	// SyncOnDrain reports whether Sync also runs when the cluster drains
	// (end of epoch), so the canonical network reflects every replica.
	SyncOnDrain() bool
	// Sync coordinates the quiesced replicas. The cluster skips it entirely
	// for R=1, preserving bit-identity with the bare engine.
	Sync(replicas []Replica)
}

// None is the no-coordination policy: replicas train independently on their
// shards. Replica 0 is the cluster's canonical network; the others are
// ensemble members.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Interval implements Policy.
func (None) Interval() int { return 0 }

// GradReduce implements Policy.
func (None) GradReduce() bool { return false }

// SyncOnDrain implements Policy.
func (None) SyncOnDrain() bool { return false }

// Sync implements Policy.
func (None) Sync([]Replica) {}

// AvgEvery is the local-SGD-style policy: every K samples per replica the
// cluster quiesces and the policy averages weights, velocities and tracked
// previous weights across replicas.
type AvgEvery struct {
	K int
}

// Name implements Policy.
func (p AvgEvery) Name() string { return fmt.Sprintf("avg-every-%d", p.K) }

// Interval implements Policy.
func (p AvgEvery) Interval() int { return p.K }

// GradReduce implements Policy.
func (AvgEvery) GradReduce() bool { return false }

// SyncOnDrain implements Policy: a final average at drain makes the canonical
// network the consensus of all replicas.
func (AvgEvery) SyncOnDrain() bool { return true }

// Sync implements Policy.
func (AvgEvery) Sync(replicas []Replica) { AverageState(replicas) }

// SyncGrad is the per-update gradient-averaging policy. The averaging itself
// happens in the cluster's rounds (GradReduce): between a round's gradient
// sweep and its update sweep, each stage's gradient is averaged over the
// replicas that computed one. Sync runs at drain and re-broadcasts the
// state of the replica that stepped furthest, so an epoch whose sample
// count does not divide by R (only the tail's owners step in its last
// rounds) leaves every replica bit-identical again, tail updates included.
type SyncGrad struct{}

// Name implements Policy.
func (SyncGrad) Name() string { return "sync-grad" }

// Interval implements Policy.
func (SyncGrad) Interval() int { return 0 }

// GradReduce implements Policy.
func (SyncGrad) GradReduce() bool { return true }

// SyncOnDrain implements Policy.
func (SyncGrad) SyncOnDrain() bool { return true }

// Sync implements Policy: it broadcasts from the replica with the largest
// schedule step, the lowest index on a tie. A replica's step counts the
// rounds it took part in. Since the last sync every replica took part in
// each round from the first until its pipeline emptied, and the tail's
// owners, one sample ahead, empty last. So the source is a tail owner,
// which alone holds the tail's updates; without a tail it is replica 0.
func (SyncGrad) Sync(replicas []Replica) {
	from := 0
	for r, rep := range replicas {
		if rep.UpdateStep() > replicas[from].UpdateStep() {
			from = r
		}
	}
	Broadcast(replicas, from)
}

// Parse resolves a policy selector: "none" (or ""), "sync-grad", or
// "avg-every-<k>" with k ≥ 1.
func Parse(s string) (Policy, error) {
	switch s {
	case "", "none":
		return None{}, nil
	case "sync-grad":
		return SyncGrad{}, nil
	}
	if rest, ok := strings.CutPrefix(s, "avg-every-"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("sync: bad averaging interval in %q (want avg-every-<k>, k ≥ 1)", s)
		}
		return AvgEvery{K: k}, nil
	}
	return nil, fmt.Errorf("sync: unknown policy %q (want none|sync-grad|avg-every-<k>)", s)
}

// AverageState replaces every replica's parameter values, momentum velocities
// and (when all replicas track them) previous weights with the element-wise
// mean across replicas. Sums run in replica-index order over float64, so the
// result is deterministic; with a single replica the state is untouched
// bit for bit. All replicas must share the pipeline decomposition (the
// cluster validates this at construction).
func AverageState(replicas []Replica) {
	if len(replicas) < 2 {
		return
	}
	inv := 1.0 / float64(len(replicas))
	for s := 0; s < replicas[0].NumStages(); s++ {
		params0 := replicas[0].StageParams(s)
		for j, p0 := range params0 {
			// Weights: accumulate into replica 0, then broadcast the mean.
			w0 := p0.W.Data
			for r := 1; r < len(replicas); r++ {
				wr := replicas[r].StageParams(s)[j].W.Data
				for i := range w0 {
					w0[i] += wr[i]
				}
			}
			for i := range w0 {
				w0[i] *= inv
			}
			// Velocities (allocated on demand: an untouched buffer is zero,
			// which contributes exactly its algorithmic value to the mean).
			v0, _ := replicas[0].StageOptimizer(s).Gather(p0)
			for r := 1; r < len(replicas); r++ {
				pr := replicas[r].StageParams(s)[j]
				vr, _ := replicas[r].StageOptimizer(s).Gather(pr)
				for i := range v0 {
					v0[i] += vr[i]
				}
			}
			for i := range v0 {
				v0[i] *= inv
			}
			// Previous weights (LWPw): only meaningful when every replica has
			// them; the aligned shard schedule guarantees all-or-none.
			prevs := make([][]float64, len(replicas))
			all := true
			for r := range replicas {
				pr := replicas[r].StageParams(s)[j]
				_, prevs[r] = replicas[r].StageOptimizer(s).Gather(pr)
				if prevs[r] == nil {
					all = false
				}
			}
			if all {
				q0 := prevs[0]
				for r := 1; r < len(replicas); r++ {
					for i := range q0 {
						q0[i] += prevs[r][i]
					}
				}
				for i := range q0 {
					q0[i] *= inv
				}
			}
			// Broadcast the means (replica 0 already holds them).
			for r := 1; r < len(replicas); r++ {
				pr := replicas[r].StageParams(s)[j]
				copy(pr.W.Data, w0)
				var prev []float64
				if all {
					prev = prevs[0]
				}
				replicas[r].StageOptimizer(s).Scatter(pr, v0, prev)
			}
		}
	}
}

// Broadcast copies replica from's full training state — weights, velocities,
// tracked previous weights, per-stage update counters and the schedule
// step — into every other replica, leaving all replicas bit-identical to
// the source.
func Broadcast(replicas []Replica, from int) {
	for r := range replicas {
		if r != from {
			AlignTo(replicas, from, r)
		}
	}
}

// AlignTo copies replica from's full training state onto replica to only,
// leaving every other replica untouched. It is the elastic-join alignment
// (core.Cluster.AddReplica): a replica joining a running cluster adopts the
// canonical replica's weights, optimizer state, update counters and
// schedule step — so it does not replay the LR schedule from step 0 —
// without disturbing its peers — a full Broadcast would overwrite them, which is
// wrong under policies whose replicas legitimately diverge between syncs
// (avg-every-k, none).
func AlignTo(replicas []Replica, from, to int) {
	if from == to {
		return
	}
	src, dst := replicas[from], replicas[to]
	for s := 0; s < src.NumStages(); s++ {
		params := src.StageParams(s)
		opt := src.StageOptimizer(s)
		dstParams := dst.StageParams(s)
		dstOpt := dst.StageOptimizer(s)
		for j, p := range params {
			q := dstParams[j]
			copy(q.W.Data, p.W.Data)
			vel, prev := opt.Gather(p)
			dstOpt.Scatter(q, vel, prev)
		}
		dst.SetStageUpdates(s, src.StageUpdates(s))
	}
	dst.SetUpdateStep(src.UpdateStep())
}

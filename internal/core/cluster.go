package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/nn"
	obspkg "repro/internal/obs"
	syncpol "repro/internal/sync"
	"repro/internal/tensor"
)

// This file implements the replicated-pipeline cluster engine: R independent
// pipeline replicas — each an ordinary engine (a PBTrainer run as seq or
// lockstep, or an AsyncPBTrainer) over its own copy of the network — behind
// the same Engine interface, fed by a deterministic round-robin shard of the
// sample stream (sample g goes to replica g mod R, exactly the data.Shard
// striding) and coordinated by a pluggable weight-sync policy
// (internal/sync). This is the data+pipeline
// hybrid of PipeDream (Harlap et al. 2018) and the replicated stages of
// PipeDream-2BW (Narayanan et al. 2021) mapped onto the paper's fine-grained
// pipelines; DESIGN.md §10 documents the semantics and the determinism
// arguments.
//
// Determinism anchors:
//
//   - R=1: every policy degenerates to a transparent wrapper. The cluster
//     routes all samples to the one replica, never quiesces mid-stream, and
//     releases results in completion order, so Cluster(R=1) is bit-identical
//     to the bare engine (TestClusterR1MatchesEngine).
//   - sync-grad: the driver steps the replicas in rounds over a shared
//     permutation and every stage update applies the replica-index-ordered
//     mean gradient, so the weight trajectory is deterministic at any R and
//     the same under seq and lockstep replicas (TestSyncGradDeterministic).

// replicaView is what the cluster needs from each inner engine beyond
// PipelineEngine. newEngine returns it, so every engine in the closed set is
// checked at compile time to satisfy it.
type replicaView interface {
	PipelineEngine
	// dropPredictions clears ŵ from every stage's G on a quiesced replica.
	dropPredictions()
}

// ClusterConfig configures NewCluster beyond the shared training Config.
type ClusterConfig struct {
	// Replicas is R. 0 means len(nets).
	Replicas int
	// Engine names the inner engine built per replica (one of EngineNames;
	// "" = "seq"). Policies with GradReduce need a stepped engine at R > 1,
	// i.e. a PBTrainer: "seq" or "lockstep".
	Engine string
	// Policy coordinates replica weights; nil means sync.None.
	Policy syncpol.Policy
}

// Cluster runs R pipeline replicas behind the Engine interface. Submit
// shards the sample stream round-robin across replicas; Drain quiesces all
// of them (and runs the policy's drain sync); results are re-numbered with
// their global submission index and released strictly in that order, so the
// result stream is deterministic whenever the inner engines are.
//
// The compute-worker budget Config.Workers is split across replicas first
// (replicaShares) and then within each replica across stages (workers.go),
// so total concurrency stays within the budget no matter how R and the
// pipeline depth trade off.
type Cluster struct {
	cfg    Config
	policy syncpol.Policy
	// engineName is the inner-engine selector, kept so elastic joins
	// (AddReplica) build the same engine kind as the founders.
	engineName string
	// nextIdentity numbers replicas for fault injection: each replica's
	// ChaosPoint.Replica is its join-order identity, stable across removals
	// (slot indices shift when a replica leaves; identities never do).
	nextIdentity int

	nets    []*nn.Network
	engines []replicaView
	views   []syncpol.Replica

	// submitted is the global sample cursor: sample g routes to replica
	// g mod R. lastSync/syncs drive the policy cadence.
	submitted int
	lastSync  int
	syncs     int
	closed    bool

	// ids holds, per replica, the global IDs of its in-flight samples in
	// submission order (replicas complete in FIFO order, so the head is
	// always the next completion). pending/nextOut release results in global
	// order.
	ids     [][]int
	pending map[int]*Result
	nextOut int

	// stepped holds the replicas' engines when the policy averages
	// gradients at R > 1 (nil otherwise). They must be *PBTrainer (seq or
	// lockstep): a round steps them sweep by sweep, and async has no global
	// step. admitted counts the samples pushed since the last round.
	stepped  []*PBTrainer
	admitted int

	// obs is the cluster's driver-side producer for Config.Obs. The cluster
	// emits at the driver level only (released results, global queue depth,
	// sync clock, drain summary); the replica engines are built with Obs
	// stripped, since their per-stage emits would interleave R replicas'
	// stage indices onto one stream indistinguishably.
	obs *obspkg.Producer
}

// NewCluster builds a cluster over the given replica networks. The networks
// must share the pipeline decomposition (stage count and parameter names,
// validated here) and must not share *nn.Param instances — each replica owns
// its weights outright; weight identity across replicas is the caller's
// choice (train.Builder clones with shared init; ensembles may differ).
func NewCluster(nets []*nn.Network, cfg Config, cc ClusterConfig) (*Cluster, error) {
	r := cc.Replicas
	if r == 0 {
		r = len(nets)
	}
	if r < 1 {
		return nil, fmt.Errorf("core: cluster needs ≥ 1 replica, got %d", r)
	}
	if len(nets) != r {
		return nil, fmt.Errorf("core: cluster wants %d replica networks, got %d", r, len(nets))
	}
	policy := cc.Policy
	if policy == nil {
		policy = syncpol.None{}
	}
	if err := validateReplicaNets(nets); err != nil {
		return nil, err
	}
	if nets[0].DType() != tensor.F64 {
		return nil, fmt.Errorf("core: cluster training is f64-only (replica sync averages f64 buffers), got %s nets", nets[0].DType())
	}

	c := &Cluster{
		cfg:        cfg,
		policy:     policy,
		engineName: cc.Engine,
		nets:       nets,
		ids:        make([][]int, r),
		pending:    map[int]*Result{},
	}
	c.obs = driverProducer(cfg.Obs)
	shares := replicaShares(cfg.Workers, r)
	for i, net := range nets {
		rv, err := c.buildReplica(net, shares[i])
		if err != nil {
			c.Close()
			return nil, err
		}
		c.engines = append(c.engines, rv)
		c.views = append(c.views, rv)
	}
	if err := c.bindStepped(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// buildReplica constructs one inner engine over net with the given kernel-
// worker share. The replica's Obs is stripped (the cluster emits driver-level
// only) and its fault-injection hook is wrapped so ChaosPoint.Replica carries
// the replica's join-order identity.
func (c *Cluster) buildReplica(net *nn.Network, workers int) (replicaView, error) {
	rcfg := c.cfg
	rcfg.Workers = workers
	rcfg.Obs = nil // cluster emits driver-level only (see Cluster.obs)
	if outer := c.cfg.StageDelay; outer != nil {
		id := c.nextIdentity
		rcfg.StageDelay = func(p ChaosPoint) time.Duration {
			p.Replica = id
			return outer(p)
		}
	}
	c.nextIdentity++
	return newEngine(c.engineName, net, rcfg)
}

// bindStepped collects the replicas' stepped engines when the policy
// averages gradients, or clears them when it doesn't or a single replica
// remains. With one replica the mean gradient is the gradient itself, so
// the rounds (and their stepped-engine requirement) only engage at R > 1 —
// Cluster(R=1) stays a transparent wrapper for every engine under every
// policy.
func (c *Cluster) bindStepped() error {
	c.stepped = nil
	if !c.policy.GradReduce() || len(c.engines) < 2 {
		return nil
	}
	for _, e := range c.engines {
		pb, ok := e.(*PBTrainer)
		if !ok {
			return fmt.Errorf("core: policy %q averages per-update gradients and needs a stepped engine (seq|lockstep), not %q",
				c.policy.Name(), c.engineName)
		}
		c.stepped = append(c.stepped, pb)
	}
	return nil
}

// validateReplicaNets checks that every replica network has the same pipeline
// decomposition and that no *nn.Param is shared between replicas.
func validateReplicaNets(nets []*nn.Network) error {
	seen := map[*nn.Param]int{}
	s0 := nets[0].NumStages()
	for r, net := range nets {
		if net == nil {
			return fmt.Errorf("core: cluster replica %d network is nil", r)
		}
		if net.NumStages() != s0 {
			return fmt.Errorf("core: cluster replica %d has %d stages, replica 0 has %d", r, net.NumStages(), s0)
		}
		for s := 0; s < s0; s++ {
			ps, ps0 := net.Stages[s].Params(), nets[0].Stages[s].Params()
			if len(ps) != len(ps0) {
				return fmt.Errorf("core: cluster replica %d stage %d has %d params, replica 0 has %d", r, s, len(ps), len(ps0))
			}
			for j, p := range ps {
				if p.Name != ps0[j].Name || p.W.Size() != ps0[j].W.Size() {
					return fmt.Errorf("core: cluster replica %d stage %d param %q/%d mismatches replica 0's %q/%d",
						r, s, p.Name, p.W.Size(), ps0[j].Name, ps0[j].W.Size())
				}
				if p.DType() != ps0[j].DType() {
					return fmt.Errorf("core: cluster replica %d param %q is %s, replica 0 is %s",
						r, p.Name, p.DType(), ps0[j].DType())
				}
				if prev, dup := seen[p]; dup {
					return fmt.Errorf("core: replicas %d and %d share parameter %q — replicas need their own weight copies (clone with shared init, don't alias)", prev, r, p.Name)
				}
				seen[p] = r
			}
		}
	}
	return nil
}

// ---- elastic membership ----

// checkQuiesced verifies the cluster is fully drained — no in-flight or
// pushed samples, no unreleased results. Membership changes require a
// quiesced cluster so the shard routing can re-partition at a clean sample
// boundary; callers Drain first.
func (c *Cluster) checkQuiesced(op string) error {
	if c.closed {
		return fmt.Errorf("core: %s on a closed cluster", op)
	}
	for r, in := range c.ids {
		if len(in) > 0 {
			return fmt.Errorf("core: %s with %d samples in flight on replica %d (Drain first)", op, len(in), r)
		}
	}
	if len(c.pending) > 0 {
		return fmt.Errorf("core: %s with %d results unreleased (Drain first)", op, len(c.pending))
	}
	return nil
}

// RemoveReplica removes replica slot i from a quiesced cluster: its engine is
// closed, its network detached, and the survivors continue with their state
// untouched. The shard routing re-partitions from the current cursor on —
// sample g ≥ submitted routes to surviving slot g mod (R−1), the tail shard
// internal/data's ShardTail test helper specifies — and the change point is a
// sync boundary (membershipChanged). Removing the last replica is refused: a
// cluster always has a canonical network.
func (c *Cluster) RemoveReplica(i int) error {
	if err := c.checkQuiesced("RemoveReplica"); err != nil {
		return err
	}
	if i < 0 || i >= len(c.engines) {
		return fmt.Errorf("core: RemoveReplica(%d) out of range [0,%d)", i, len(c.engines))
	}
	if len(c.engines) == 1 {
		return fmt.Errorf("core: RemoveReplica(%d) would leave an empty cluster", i)
	}
	c.engines[i].Close()
	c.nets = append(c.nets[:i], c.nets[i+1:]...)
	c.engines = append(c.engines[:i], c.engines[i+1:]...)
	c.views = append(c.views[:i], c.views[i+1:]...)
	c.ids = append(c.ids[:i], c.ids[i+1:]...)
	return c.membershipChanged()
}

// AddReplica joins a new replica over net to a quiesced cluster. The joiner
// is built as the same engine kind as the founders, receives the (R+1)-way
// worker share of the newest slot, and adopts the canonical replica's full
// training state (sync.AlignTo: weights, optimizer state, update counters,
// schedule step), so it joins the very next round without perturbing peers.
// The shard routing re-partitions from the current cursor on and the change
// point is a sync boundary (membershipChanged).
func (c *Cluster) AddReplica(net *nn.Network) error {
	if err := c.checkQuiesced("AddReplica"); err != nil {
		return err
	}
	if err := validateReplicaNets(append(append([]*nn.Network(nil), c.nets...), net)); err != nil {
		return err
	}
	shares := replicaShares(c.cfg.Workers, len(c.engines)+1)
	rv, err := c.buildReplica(net, shares[len(c.engines)])
	if err != nil {
		return err
	}
	c.nets = append(c.nets, net)
	c.engines = append(c.engines, rv)
	c.views = append(c.views, rv)
	c.ids = append(c.ids, nil)
	syncpol.AlignTo(c.views, 0, len(c.views)-1)
	return c.membershipChanged()
}

// membershipChanged finalizes a replica-set change: the change point is a
// sync boundary (the periodic-sync cadence restarts from the current cursor —
// the pre-change interval position is not carried across a re-partition) and
// the stepped engines are collected again for the new replica set.
func (c *Cluster) membershipChanged() error {
	c.lastSync = c.submitted
	return c.bindStepped()
}

// Replicas returns R.
func (c *Cluster) Replicas() int { return len(c.engines) }

// Policy returns the cluster's weight-sync policy.
func (c *Cluster) Policy() syncpol.Policy { return c.policy }

// ReplicaNet exposes replica i's network. Replica 0 is the canonical one
// (evaluation, round-robin tail priority).
func (c *Cluster) ReplicaNet(i int) *nn.Network { return c.nets[i] }

// NumStages returns the pipeline depth S (identical across replicas).
func (c *Cluster) NumStages() int { return c.engines[0].NumStages() }

// Delays returns the analytic per-stage delays (identical across replicas).
func (c *Cluster) Delays() []int { return c.engines[0].Delays() }

// ObservedDelays returns the element-wise maximum observed staleness across
// replicas. Only valid with the cluster quiesced.
func (c *Cluster) ObservedDelays() []int {
	out := append([]int(nil), c.engines[0].ObservedDelays()...)
	for _, e := range c.engines[1:] {
		for i, d := range e.ObservedDelays() {
			if d > out[i] {
				out[i] = d
			}
		}
	}
	return out
}

// InputBuffer returns an input tensor for the next Submit, drawn from the
// free list of the replica that sample will route to.
func (c *Cluster) InputBuffer(shape ...int) *tensor.Tensor {
	return c.engines[c.submitted%len(c.engines)].InputBuffer(shape...)
}

// Stats aggregates the replica engines' accounting: sample counts and steps
// sum, utilization averages, staleness takes the maximum. Replicas and Syncs
// report the cluster geometry and the policy's completed sync operations.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Stages:   c.NumStages(),
		Replicas: len(c.engines),
		Syncs:    c.syncs,
	}
	var util float64
	for _, e := range c.engines {
		es := e.Stats()
		s.Submitted += es.Submitted
		s.Completed += es.Completed
		s.Steps += es.Steps
		s.AdmitDeferred += es.AdmitDeferred
		util += es.Utilization
		if es.MaxObservedDelay > s.MaxObservedDelay {
			s.MaxObservedDelay = es.MaxObservedDelay
		}
	}
	s.Utilization = util / float64(len(c.engines))
	return s
}

// Close releases every replica engine. Idempotent; in-flight samples are
// abandoned.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, e := range c.engines {
		e.Close()
	}
}

// absorb renumbers a batch of replica-r results with their global submission
// IDs (replicas complete strictly in submission order) and returns every
// result that became releasable — results leave the cluster in global-ID
// order, so the stream is deterministic whenever the replicas are.
func (c *Cluster) absorb(r int, rs []*Result) []*Result {
	for _, res := range rs {
		if len(c.ids[r]) == 0 {
			panic("core: cluster got a result from a replica with no sample in flight")
		}
		g := c.ids[r][0]
		c.ids[r] = c.ids[r][1:]
		res.ID = g
		c.pending[g] = res
	}
	var out []*Result
	for {
		res, ok := c.pending[c.nextOut]
		if !ok {
			return out
		}
		delete(c.pending, c.nextOut)
		c.nextOut++
		out = append(out, res)
	}
}

// Submit feeds one sample to the cluster: it routes to replica
// (submitted mod R), triggers the policy's periodic sync when due, and
// returns the results that became releasable. The engine takes ownership of
// x. A cancelled ctx returns before the sample is admitted.
func (c *Cluster) Submit(ctx context.Context, x *tensor.Tensor, label int) ([]*Result, error) {
	if c.closed {
		panic("core: Submit after Close")
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	r := c.submitted % len(c.engines)
	g := c.submitted
	c.submitted++
	c.ids[r] = append(c.ids[r], g)

	var out []*Result
	if c.stepped != nil {
		// sync-grad: the sample waits in its replica until R samples have
		// been admitted, one per replica, and then they step together.
		c.stepped[r].Push(x, label)
		c.admitted++
		if c.admitted == len(c.engines) {
			out = c.round()
		}
	} else {
		rs, err := c.engines[r].Submit(ctx, x, label)
		out = c.absorb(r, rs)
		if err != nil {
			// The inner engine did not admit the sample (cancelled ctx); undo
			// the global accounting so IDs stay dense and Drain can't wedge.
			c.submitted--
			c.ids[r] = c.ids[r][:len(c.ids[r])-1]
			return out, err
		}
	}

	if k := c.policy.Interval(); k > 0 && len(c.engines) > 1 &&
		c.submitted-c.lastSync >= k*len(c.engines) {
		qrs, err := c.quiesce(ctx)
		out = append(out, qrs...)
		if err != nil {
			return out, err
		}
		c.runSync()
	}
	c.emitDriver(out)
	return out, nil
}

// emitDriver publishes the cluster's driver-side view — released results and
// the global in-flight count — after a Submit or Drain.
func (c *Cluster) emitDriver(rs []*Result) {
	if c.obs == nil {
		return
	}
	emitResults(c.obs, c.nextOut, rs)
	c.obs.Emit(obspkg.Event{Kind: obspkg.KindQueueDepth, Stage: -1, Count: int64(c.submitted - c.nextOut)})
}

// runSync executes the policy's sync on the quiesced replicas and advances
// the sync clock.
func (c *Cluster) runSync() {
	c.policy.Sync(c.views)
	// The policy wrote weights and optimizer state behind the stage loops.
	// sync-grad quiesces by rounds, not the engines' Drain, so their
	// predictions are still in G here.
	for _, e := range c.engines {
		e.dropPredictions()
	}
	c.syncs++
	c.lastSync = c.submitted
	c.obs.Emit(obspkg.Event{Kind: obspkg.KindSyncClock, Stage: -1, Count: int64(c.syncs)})
}

// quiesce drains every replica (in replica order) and returns the released
// results. Sync-grad replicas drain by rounds: the ctx is checked before
// each, but a pending partial round, whose samples are already in their
// replicas, always runs.
func (c *Cluster) quiesce(ctx context.Context) ([]*Result, error) {
	var out []*Result
	if c.stepped != nil {
		for slices.ContainsFunc(c.stepped, func(pb *PBTrainer) bool { return pb.Outstanding() > 0 }) {
			if err := ctxErr(ctx); err != nil && c.admitted == 0 {
				return out, err
			}
			out = append(out, c.round()...)
		}
		return out, nil
	}
	for r, e := range c.engines {
		rs, err := e.Drain(ctx)
		out = append(out, c.absorb(r, rs)...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Drain quiesces every replica, runs the policy's drain sync (R > 1 only,
// and only when samples flowed since the last sync), and returns the
// remaining results in global order.
func (c *Cluster) Drain(ctx context.Context) ([]*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	out, err := c.quiesce(ctx)
	if err != nil {
		return out, err
	}
	if len(c.engines) > 1 && c.policy.SyncOnDrain() && c.submitted > c.lastSync {
		c.runSync()
	}
	c.emitDriver(out)
	emitDrainSummary(c.obs, c.Stats())
	return out, nil
}

// round steps every replica with work once, as one update of size R per
// stage. The replicas run one sweep of forwards and gradients (lockstep
// replicas are all released before any is waited for, so their lanes
// overlap); then one update sweep, on the first active replica's stages,
// averages each stage's gradient over the replicas that computed one and
// applies it to each of them. Results are absorbed in replica order,
// keeping the release stream deterministic.
func (c *Cluster) round() []*Result {
	c.admitted = 0
	var active []int
	for r, pb := range c.stepped {
		if pb.Outstanding() > 0 {
			pb.begin()
			active = append(active, r)
		}
	}
	for _, r := range active {
		c.stepped[r].release(c.stepped[r].gradSweep)
	}
	for _, r := range active {
		c.stepped[r].wait()
	}
	c.stepped[active[0]].sweep(c.updateStage)
	var out []*Result
	for _, r := range active {
		if res := c.stepped[r].end(); res != nil {
			out = append(out, c.absorb(r, []*Result{res})...)
		}
	}
	return out
}

// updateStage is stage s's part of a round's update sweep: it averages the
// stage's gradients and applies the mean on every replica that computed
// one this round. The peers' lanes are idle during the sweep, so reading
// and writing their stage state here is race-free.
func (c *Cluster) updateStage(s int) {
	c.averageStage(s)
	for _, pb := range c.stepped {
		if pb.held[s] {
			pb.held[s] = false
			pb.stages[s].update(pb.lr())
		}
	}
}

// averageStage replaces stage s's gradient, on every replica that holds
// one, with the mean over those replicas, summed in replica-index order
// into the first one's G. With one contributor the gradient is multiplied
// by exactly 1.0 — bit-identical to no averaging.
func (c *Cluster) averageStage(s int) {
	first, n := -1, 0
	for r, pb := range c.stepped {
		if pb.held[s] {
			n++
			if first < 0 {
				first = r
			}
		}
	}
	if n == 0 {
		return
	}
	inv := 1.0 / float64(n)
	peers := c.stepped[first+1:]
	for j, p := range c.stepped[first].stages[s].params {
		dst := p.Grad().Data
		for _, pb := range peers {
			if pb.held[s] {
				g := pb.stages[s].params[j].Grad().Data
				for i := range dst {
					dst[i] += g[i]
				}
			}
		}
		for i := range dst {
			dst[i] *= inv
		}
		for _, pb := range peers {
			if pb.held[s] {
				copy(pb.stages[s].params[j].Grad().Data, dst)
			}
		}
	}
}

// ---- checkpointing (checkpoint.ClusterTrainer) ----

// ReplicaEngine returns replica i's engine.
func (c *Cluster) ReplicaEngine(i int) syncpol.Replica { return c.engines[i] }

// PolicyName records the sync policy in snapshots; checkpoint.Restore
// refuses a snapshot taken under a different policy.
func (c *Cluster) PolicyName() string { return c.policy.Name() }

// PolicyInterval records the policy's averaging interval in snapshots.
func (c *Cluster) PolicyInterval() int { return c.policy.Interval() }

// ClusterCursor exposes the shard and sync positions for checkpointing:
// the global sample cursor (next replica = submitted mod R), the completed
// sync count, and the cursor value at the last sync.
func (c *Cluster) ClusterCursor() (submitted, syncs, lastSync int) {
	return c.submitted, c.syncs, c.lastSync
}

// SetClusterCursor restores the shard and sync positions. The cluster must
// be quiesced (freshly built or drained); result numbering continues from
// the restored cursor.
func (c *Cluster) SetClusterCursor(submitted, syncs, lastSync int) {
	c.submitted = submitted
	c.syncs = syncs
	c.lastSync = lastSync
	c.nextOut = submitted
}

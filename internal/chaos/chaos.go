// Package chaos is the deterministic fault-injection layer: a scenario Spec —
// per-replica/per-stage delay models with named regimes, injected faults
// (replica crash, stage stall, checkpoint-write failure) and elastic
// membership changes — compiles into an immutable Schedule whose every
// decision is a pure function of (seed, replica, stage, update). The same
// spec therefore reproduces the same event schedule run to run, bit for bit,
// which is what makes chaos runs debuggable: a failure under scenario X at
// seed S is a coordinate, not a coincidence (DESIGN.md §14).
//
// The schedule plugs into the engines through two core hooks — the
// core.Config.StageDelay stall callback (pure wall-clock; never feeds the
// math) and the crash/membership/checkpoint cursor events the Runner
// consumes — so the training code has no chaos dependency, only the inverse.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	syncpol "repro/internal/sync"
)

// Regime is one phase of a delay model: from a stage-update index on, every
// visit to a matching chaos point stalls for Base plus a hashed jitter drawn
// uniformly from [0, Jitter]. Named regimes model degradation arcs — steady →
// degraded → recovered — without any wall-clock coupling: transitions key on
// update counters, so the arc replays identically at any machine speed.
type Regime struct {
	// Name labels the regime in schedules and reports ("steady", "degraded",
	// "recovered" — free-form).
	Name string
	// FromUpdate is the stage-update index at which the regime takes effect;
	// the active regime is the last one whose FromUpdate ≤ the point's update.
	FromUpdate int
	// Base is the deterministic stall applied on every matching visit.
	Base time.Duration
	// Jitter is the maximum extra stall; the draw is a hash of
	// (seed, replica, stage, update, pass), not a shared RNG stream, so
	// concurrent stage workers never contend and every draw is reproducible
	// in isolation.
	Jitter time.Duration
}

// DelayModel attaches a regime sequence to a subset of chaos points. The
// first matching model wins; -1 matches any replica/stage.
type DelayModel struct {
	// Replica is the join-order replica identity to match, or -1 for any.
	Replica int
	// Stage is the pipeline stage to match, or -1 for any.
	Stage int
	// Regimes is the model's phase sequence, sorted by FromUpdate (Compile
	// enforces order and a phase at update 0).
	Regimes []Regime
}

// FaultKind enumerates the injected fault types.
type FaultKind int

const (
	// CrashReplica kills a replica at a global sample cursor: the Runner
	// abandons the cluster mid-epoch and recovers from the last good
	// checkpoint, recomputing the lost samples.
	CrashReplica FaultKind = iota + 1
	// StallStage freezes one replica's stage for a window of its updates:
	// every visit in [At, At+Updates) stalls an extra Stall. Pure wall-clock —
	// deterministic engines produce bit-identical weights with or without it.
	StallStage
	// FailCheckpoint makes the At-th checkpoint save attempt fail. The
	// checkpoint writer is atomic (tmp + rename), so a failed save leaves the
	// previous snapshot intact — recovery falls back one checkpoint and pays
	// a larger recompute window.
	FailCheckpoint
)

// String names the fault kind (stable identifiers used in schedules, reports
// and obs events).
func (k FaultKind) String() string {
	switch k {
	case CrashReplica:
		return "crash-replica"
	case StallStage:
		return "stall-stage"
	case FailCheckpoint:
		return "fail-checkpoint"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one injected fault. Field meanings depend on Kind:
//
//   - CrashReplica: Replica is the victim (reporting only — recovery restores
//     the whole cluster), At the global sample cursor.
//   - StallStage: Replica/Stage locate the victim, At is the first stalled
//     stage-update index, Updates the window length, Stall the per-visit
//     stall.
//   - FailCheckpoint: At is the 0-based save-attempt ordinal to fail.
type Fault struct {
	Kind    FaultKind
	Replica int
	Stage   int
	At      int
	Updates int
	Stall   time.Duration
}

// Membership is one elastic-replica event at a global sample cursor: remove
// a slot, or join a fresh replica (which adopts the canonical replica's state
// via sync.AlignTo). The Runner drains the cluster first, so the change lands
// on a quiesced sync boundary.
type Membership struct {
	// AtSample is the global sample cursor at which the change fires.
	AtSample int
	// Remove is the replica slot to remove, or -1 to join instead.
	Remove int
}

// Spec is a complete chaos scenario: cluster geometry, training cadence, and
// the injected delay models, faults and membership changes. Compile validates
// it into a Schedule.
type Spec struct {
	// Name labels the scenario in reports and bench rows.
	Name string
	// Seed drives every random-looking decision (jitter hashes, epoch
	// permutations); same seed, same schedule.
	Seed int64
	// Replicas is the initial cluster size R; Engine and Sync select the
	// inner engine and weight-sync policy as in train/cmd flags.
	Replicas int
	Engine   string
	Sync     string
	// Samples is the per-epoch sample count, Epochs the epoch count.
	Samples int
	Epochs  int
	// CheckpointEvery saves a cluster checkpoint every that many global
	// samples (0 = never). Required when a CrashReplica fault is scheduled.
	CheckpointEvery int
	// AdmitBound bounds the free-running async engines' in-flight samples
	// (core.Config.AdmitBound; 0 = unbounded).
	AdmitBound int
	// LR/Momentum are the reference hyperparameters fed through
	// core.ScaledConfig (zero values default to 0.05 / 0.9).
	LR       float64
	Momentum float64

	Models  []DelayModel
	Faults  []Fault
	Elastic []Membership
}

// Schedule is a compiled, immutable scenario. Delay is safe for concurrent
// use from every stage worker.
type Schedule struct {
	spec    Spec
	policy  syncpol.Policy
	crashes []Fault      // CrashReplica, sorted by At
	stalls  []Fault      // StallStage, sorted by (At, Replica, Stage)
	ckpt    map[int]bool // FailCheckpoint ordinals
	elastic []Membership // sorted by AtSample
}

// Compile validates a spec and freezes it into a Schedule.
func Compile(spec Spec) (*Schedule, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("chaos: scenario needs a name")
	}
	if spec.Replicas < 1 {
		return nil, fmt.Errorf("chaos: %s: %d replicas, want ≥ 1", spec.Name, spec.Replicas)
	}
	if spec.Samples < 1 || spec.Epochs < 1 {
		return nil, fmt.Errorf("chaos: %s: %d samples × %d epochs, want ≥ 1 each", spec.Name, spec.Samples, spec.Epochs)
	}
	if spec.CheckpointEvery < 0 {
		return nil, fmt.Errorf("chaos: %s: negative checkpoint interval %d", spec.Name, spec.CheckpointEvery)
	}
	if spec.AdmitBound < 0 {
		return nil, fmt.Errorf("chaos: %s: negative admit bound %d", spec.Name, spec.AdmitBound)
	}
	if spec.LR == 0 {
		spec.LR = 0.05
	}
	if spec.Momentum == 0 {
		spec.Momentum = 0.9
	}
	policy, err := syncpol.Parse(spec.Sync)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", spec.Name, err)
	}
	sched := &Schedule{spec: spec, policy: policy, ckpt: map[int]bool{}}
	total := spec.Samples * spec.Epochs
	for i, m := range spec.Models {
		if m.Replica < -1 || m.Stage < -1 {
			return nil, fmt.Errorf("chaos: %s: model %d matches replica %d stage %d (want ≥ -1)", spec.Name, i, m.Replica, m.Stage)
		}
		if len(m.Regimes) == 0 {
			return nil, fmt.Errorf("chaos: %s: model %d has no regimes", spec.Name, i)
		}
		if m.Regimes[0].FromUpdate != 0 {
			return nil, fmt.Errorf("chaos: %s: model %d first regime starts at update %d, want 0 (every update needs an active regime)", spec.Name, i, m.Regimes[0].FromUpdate)
		}
		for j, rg := range m.Regimes {
			if rg.Base < 0 || rg.Jitter < 0 {
				return nil, fmt.Errorf("chaos: %s: model %d regime %q has negative delay", spec.Name, i, rg.Name)
			}
			if j > 0 && rg.FromUpdate <= m.Regimes[j-1].FromUpdate {
				return nil, fmt.Errorf("chaos: %s: model %d regimes out of order at %q", spec.Name, i, rg.Name)
			}
		}
	}
	for i, f := range spec.Faults {
		switch f.Kind {
		case CrashReplica:
			if f.At < 1 || f.At >= total {
				return nil, fmt.Errorf("chaos: %s: fault %d crashes at sample %d, want in [1,%d)", spec.Name, i, f.At, total)
			}
			if spec.CheckpointEvery == 0 {
				return nil, fmt.Errorf("chaos: %s: fault %d crashes a replica but the scenario never checkpoints — recovery is impossible", spec.Name, i)
			}
			sched.crashes = append(sched.crashes, f)
		case StallStage:
			if f.Replica < 0 || f.Stage < 0 || f.Updates < 1 || f.Stall <= 0 {
				return nil, fmt.Errorf("chaos: %s: fault %d is a malformed stall (replica %d stage %d updates %d stall %v)",
					spec.Name, i, f.Replica, f.Stage, f.Updates, f.Stall)
			}
			sched.stalls = append(sched.stalls, f)
		case FailCheckpoint:
			if f.At < 0 {
				return nil, fmt.Errorf("chaos: %s: fault %d fails checkpoint ordinal %d, want ≥ 0", spec.Name, i, f.At)
			}
			if spec.CheckpointEvery == 0 {
				return nil, fmt.Errorf("chaos: %s: fault %d fails a checkpoint but the scenario never checkpoints", spec.Name, i)
			}
			sched.ckpt[f.At] = true
		default:
			return nil, fmt.Errorf("chaos: %s: fault %d has unknown kind %d", spec.Name, i, int(f.Kind))
		}
	}
	for i, m := range spec.Elastic {
		if m.AtSample < 1 || m.AtSample >= total {
			return nil, fmt.Errorf("chaos: %s: membership %d fires at sample %d, want in [1,%d)", spec.Name, i, m.AtSample, total)
		}
		if m.Remove < -1 {
			return nil, fmt.Errorf("chaos: %s: membership %d removes slot %d", spec.Name, i, m.Remove)
		}
		sched.elastic = append(sched.elastic, m)
	}
	sort.SliceStable(sched.crashes, func(a, b int) bool { return sched.crashes[a].At < sched.crashes[b].At })
	sort.SliceStable(sched.stalls, func(a, b int) bool {
		x, y := sched.stalls[a], sched.stalls[b]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Replica != y.Replica {
			return x.Replica < y.Replica
		}
		return x.Stage < y.Stage
	})
	sort.SliceStable(sched.elastic, func(a, b int) bool { return sched.elastic[a].AtSample < sched.elastic[b].AtSample })
	return sched, nil
}

// Spec returns the validated spec (with defaults filled in).
func (s *Schedule) Spec() Spec { return s.spec }

// Policy returns the parsed weight-sync policy.
func (s *Schedule) Policy() syncpol.Policy { return s.policy }

// splitmix64 is the jitter hash: a full-avalanche mix of one 64-bit word
// (Steele et al. 2014). Stateless, so every (seed, point) pair draws its
// jitter independently of evaluation order or concurrency.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitter draws the point's deterministic jitter in [0, max].
func (s *Schedule) jitter(p core.ChaosPoint, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	h := splitmix64(uint64(s.spec.Seed))
	h = splitmix64(h ^ uint64(int64(p.Replica)+1))
	h = splitmix64(h ^ uint64(int64(p.Stage)+1))
	h = splitmix64(h ^ uint64(int64(p.Update)))
	if p.Backward {
		h = splitmix64(h ^ 0xb)
	}
	return time.Duration(h % uint64(max+1))
}

// Delay is the core.Config.StageDelay hook: the stall to inject at a chaos
// point. It sums the first matching delay model's active regime (base +
// hashed jitter) with every stall-fault window covering the point. Pure and
// lock-free; safe from any number of stage workers.
func (s *Schedule) Delay(p core.ChaosPoint) time.Duration {
	var d time.Duration
	for _, m := range s.spec.Models {
		if (m.Replica != -1 && m.Replica != p.Replica) || (m.Stage != -1 && m.Stage != p.Stage) {
			continue
		}
		rg := m.Regimes[0]
		for _, cand := range m.Regimes[1:] {
			if cand.FromUpdate > p.Update {
				break
			}
			rg = cand
		}
		d += rg.Base + s.jitter(p, rg.Jitter)
		break
	}
	for _, f := range s.stalls {
		if f.Replica == p.Replica && f.Stage == p.Stage && p.Update >= f.At && p.Update < f.At+f.Updates {
			d += f.Stall
		}
	}
	return d
}

// FailsCheckpoint reports whether the 0-based save-attempt ordinal is
// scheduled to fail.
func (s *Schedule) FailsCheckpoint(ordinal int) bool { return s.ckpt[ordinal] }

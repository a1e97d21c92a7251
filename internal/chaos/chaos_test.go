package chaos

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
)

func testSpec(name string) Spec {
	return Spec{
		Name:     name,
		Seed:     11,
		Replicas: 2,
		Engine:   "seq",
		Sync:     "sync-grad",
		Samples:  24,
		Epochs:   2,
	}
}

func testRunner(spec Spec, dir string) *Runner {
	train, _ := data.GaussianBlobs(8, 4, 48, 0, 2.5, 1.0, 7)
	return &Runner{
		Spec:  spec,
		Build: func(seed int64) *nn.Network { return models.DeepMLP(8, 10, 4, 4, seed) },
		Data:  train,
		Dir:   dir,
	}
}

// TestScheduleDeterministic pins the core chaos contract: compiling the same
// spec twice yields deep-equal event schedules, and the delay function is a
// pure function of the chaos point — same inputs, same stall, regardless of
// evaluation order.
func TestScheduleDeterministic(t *testing.T) {
	spec := testSpec("det")
	spec.CheckpointEvery = 8
	spec.Models = []DelayModel{{
		Replica: 1, Stage: -1,
		Regimes: []Regime{
			{Name: "steady", FromUpdate: 0},
			{Name: "degraded", FromUpdate: 10, Base: time.Millisecond, Jitter: time.Millisecond},
			{Name: "recovered", FromUpdate: 30, Base: 100 * time.Microsecond},
		},
	}}
	spec.Faults = []Fault{
		{Kind: StallStage, Replica: 0, Stage: 2, At: 5, Updates: 3, Stall: time.Millisecond},
		{Kind: CrashReplica, Replica: 1, At: 17},
		{Kind: FailCheckpoint, At: 1},
	}
	spec.Elastic = []Membership{{AtSample: 30, Remove: 1}, {AtSample: 40, Remove: -1}}

	a, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same spec compiled to different schedules:\n%v\n%v", a.Events(), b.Events())
	}
	if len(a.Events()) == 0 {
		t.Fatal("schedule materialized no events")
	}
	// Delay purity: sweep a grid of points twice in opposite orders.
	points := []core.ChaosPoint{}
	for rep := -1; rep < 3; rep++ {
		for st := 0; st < 4; st++ {
			for u := 0; u < 40; u += 3 {
				points = append(points, core.ChaosPoint{Replica: rep, Stage: st, Update: u})
				points = append(points, core.ChaosPoint{Replica: rep, Stage: st, Update: u, Backward: true})
			}
		}
	}
	fwd := make([]time.Duration, len(points))
	for i, p := range points {
		fwd[i] = a.Delay(p)
	}
	anyJitter := false
	for i := len(points) - 1; i >= 0; i-- {
		if d := b.Delay(points[i]); d != fwd[i] {
			t.Fatalf("Delay(%+v) = %v then %v", points[i], fwd[i], d)
		}
		if fwd[i] > 0 {
			anyJitter = true
		}
	}
	if !anyJitter {
		t.Fatal("no point drew a positive delay")
	}
}

// TestCompileValidation sweeps the malformed-spec space: every broken spec
// must be rejected with an error, never compiled into a surprising schedule.
func TestCompileValidation(t *testing.T) {
	break1 := func(f func(*Spec)) Spec {
		s := testSpec("bad")
		f(&s)
		return s
	}
	bad := map[string]Spec{
		"no name":              break1(func(s *Spec) { s.Name = "" }),
		"zero replicas":        break1(func(s *Spec) { s.Replicas = 0 }),
		"zero samples":         break1(func(s *Spec) { s.Samples = 0 }),
		"zero epochs":          break1(func(s *Spec) { s.Epochs = 0 }),
		"bad sync":             break1(func(s *Spec) { s.Sync = "avg-every-zero" }),
		"negative ckpt":        break1(func(s *Spec) { s.CheckpointEvery = -1 }),
		"negative admit bound": break1(func(s *Spec) { s.AdmitBound = -1 }),
		"empty model":          break1(func(s *Spec) { s.Models = []DelayModel{{Replica: -1, Stage: -1}} }),
		"gapped regimes": break1(func(s *Spec) {
			s.Models = []DelayModel{{Replica: -1, Stage: -1, Regimes: []Regime{{Name: "late", FromUpdate: 5}}}}
		}),
		"unordered regimes": break1(func(s *Spec) {
			s.Models = []DelayModel{{Replica: -1, Stage: -1, Regimes: []Regime{{FromUpdate: 0}, {FromUpdate: 0}}}}
		}),
		"negative delay": break1(func(s *Spec) {
			s.Models = []DelayModel{{Replica: -1, Stage: -1, Regimes: []Regime{{Base: -time.Second}}}}
		}),
		"crash w/o ckpt":     break1(func(s *Spec) { s.Faults = []Fault{{Kind: CrashReplica, At: 5}} }),
		"crash out of range": break1(func(s *Spec) { s.CheckpointEvery = 4; s.Faults = []Fault{{Kind: CrashReplica, At: 999}} }),
		"malformed stall": break1(func(s *Spec) {
			s.Faults = []Fault{{Kind: StallStage, Replica: 0, Stage: 0, Updates: 0, Stall: time.Second}}
		}),
		"unknown fault":       break1(func(s *Spec) { s.Faults = []Fault{{Kind: FaultKind(99)}} }),
		"ckpt-fail w/o ckpt":  break1(func(s *Spec) { s.Faults = []Fault{{Kind: FailCheckpoint, At: 0}} }),
		"membership at zero":  break1(func(s *Spec) { s.Elastic = []Membership{{AtSample: 0, Remove: 0}} }),
		"membership past end": break1(func(s *Spec) { s.Elastic = []Membership{{AtSample: 9999, Remove: -1}} }),
	}
	for label, spec := range bad {
		if _, err := Compile(spec); err == nil {
			t.Errorf("%s: compiled without error", label)
		}
	}
	if _, err := Compile(testSpec("ok")); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestRunDeterministic runs the same stochastic scenario twice — regime
// delays with jitter, a stall fault, an elastic remove+join — and requires
// bit-identical final weights: the whole point of hash-driven injection is
// that "chaos" never costs reproducibility.
func TestRunDeterministic(t *testing.T) {
	spec := testSpec("repeat")
	spec.Models = []DelayModel{{
		Replica: 1, Stage: -1,
		Regimes: []Regime{
			{Name: "steady", FromUpdate: 0},
			{Name: "degraded", FromUpdate: 6, Base: 50 * time.Microsecond, Jitter: 100 * time.Microsecond},
		},
	}}
	spec.Faults = []Fault{{Kind: StallStage, Replica: 0, Stage: 1, At: 4, Updates: 4, Stall: 50 * time.Microsecond}}
	spec.Elastic = []Membership{{AtSample: 16, Remove: 1}, {AtSample: 32, Remove: -1}}

	runOnce := func() *Report {
		rep, err := testRunner(spec, t.TempDir()).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := runOnce(), runOnce()
	if !weightsIdentical(a.FinalWeights, b.FinalWeights) {
		t.Fatal("same scenario, different final weights")
	}
	if a.Removed != 1 || a.Joined != 1 {
		t.Fatalf("membership counts: %d removed, %d joined, want 1/1", a.Removed, a.Joined)
	}
	if a.Replicas != 2 {
		t.Fatalf("final replicas %d, want 2", a.Replicas)
	}
}

// TestCrashRecoveryBitExact is the tentpole proof: a replica crash mid-epoch,
// recovered from the last checkpoint, must finish with final weights
// bit-identical to a run that never crashed (sync-grad, seq engine). The
// report's recompute accounting must cover exactly the lost window.
func TestCrashRecoveryBitExact(t *testing.T) {
	spec := testSpec("crash")
	spec.CheckpointEvery = 8
	spec.Faults = []Fault{{Kind: CrashReplica, Replica: 1, At: 21}}

	bus := obs.NewBus()
	defer bus.Close()
	agg := obs.NewAggregator(bus)
	r := testRunner(spec, t.TempDir())
	r.Bus = bus
	rep, err := r.RunVerified(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", rep.Crashes)
	}
	if !rep.ExactChecked {
		t.Fatal("recovery equivalence never checked")
	}
	if !rep.RecoveredExact {
		t.Fatal("recovered run diverged from the uninterrupted twin")
	}
	// Crash at 21, last good checkpoint at 16: 5 samples recomputed.
	if rep.Recomputed != 5 {
		t.Fatalf("recomputed %d samples, want 5", rep.Recomputed)
	}
	if rep.Checkpoints == 0 {
		t.Fatal("no checkpoints saved")
	}
	if s := agg.Snapshot(); s.Faults == 0 {
		t.Fatal("no fault events reached the bus")
	}
}

// TestFailedCheckpointFallsBack pins the FailCheckpoint semantics: a failed
// save leaves the previous snapshot intact, so a later crash pays a larger
// recompute window — exactly back to the last good save.
func TestFailedCheckpointFallsBack(t *testing.T) {
	spec := testSpec("ckpt-fail")
	spec.CheckpointEvery = 8
	spec.Faults = []Fault{
		{Kind: FailCheckpoint, At: 2}, // the save at sample 24 fails
		{Kind: CrashReplica, Replica: 0, At: 27},
	}
	rep, err := testRunner(spec, t.TempDir()).RunVerified(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailedSaves != 1 {
		t.Fatalf("failed saves %d, want 1", rep.FailedSaves)
	}
	// Crash at 27; save at 24 failed, so recovery falls back to 16.
	if rep.Recomputed != 11 {
		t.Fatalf("recomputed %d samples, want 11", rep.Recomputed)
	}
	if !rep.ExactChecked || !rep.RecoveredExact {
		t.Fatalf("fallback recovery not bit-exact (checked=%v exact=%v)", rep.ExactChecked, rep.RecoveredExact)
	}
}

// TestCrashAfterElasticChange crashes after a membership change whose effect
// is inside the last checkpoint: recovery must rebuild at the checkpoint's
// replica count and not replay the already-snapshotted change.
func TestCrashAfterElasticChange(t *testing.T) {
	spec := testSpec("crash-elastic")
	spec.CheckpointEvery = 8
	spec.Elastic = []Membership{{AtSample: 12, Remove: 1}}
	spec.Faults = []Fault{{Kind: CrashReplica, Replica: 0, At: 19}}
	rep, err := testRunner(spec, t.TempDir()).RunVerified(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 1 {
		t.Fatalf("removed %d, want 1 (snapshotted change must not replay)", rep.Removed)
	}
	if rep.Replicas != 1 {
		t.Fatalf("final replicas %d, want 1", rep.Replicas)
	}
	if !rep.RecoveredExact {
		t.Fatal("recovery after elastic change diverged")
	}
}

// TestAdmitBoundScenario drives a free-running async scenario with a
// straggler delay model and a staleness bound, and checks the bound showed up
// in the accounting (deferred admissions) while the run still completed every
// sample.
func TestAdmitBoundScenario(t *testing.T) {
	spec := testSpec("straggler")
	spec.Engine = "async"
	spec.Sync = "none"
	spec.AdmitBound = 2
	spec.Models = []DelayModel{{
		Replica: 1, Stage: 0,
		Regimes: []Regime{
			{Name: "steady", FromUpdate: 0},
			{Name: "degraded", FromUpdate: 4, Base: 200 * time.Microsecond, Jitter: 200 * time.Microsecond},
		},
	}}
	rep, err := testRunner(spec, t.TempDir()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdmitDeferred == 0 {
		t.Fatal("admission gate never engaged under a bound of 2")
	}
	if rep.FinalLoss <= 0 {
		t.Fatalf("no losses recorded: %+v", rep)
	}
}

// Events materializes the full injected-event list in a canonical order —
// the schedule-determinism surface (TestScheduleDeterministic): compiling the
// same spec twice must yield deep-equal event lists.
func (s *Schedule) Events() []Event {
	var evs []Event
	for _, m := range s.spec.Models {
		for _, rg := range m.Regimes {
			evs = append(evs, Event{Kind: "regime", At: rg.FromUpdate, Replica: m.Replica, Stage: m.Stage, Name: rg.Name})
		}
	}
	for _, f := range s.stalls {
		evs = append(evs, Event{Kind: "stall", At: f.At, Replica: f.Replica, Stage: f.Stage})
	}
	for _, f := range s.crashes {
		evs = append(evs, Event{Kind: "crash", At: f.At, Replica: f.Replica, Stage: -1})
	}
	ords := make([]int, 0, len(s.ckpt))
	for o := range s.ckpt {
		ords = append(ords, o)
	}
	sort.Ints(ords)
	for _, o := range ords {
		evs = append(evs, Event{Kind: "ckpt-fail", At: o, Replica: -1, Stage: -1})
	}
	for _, m := range s.elastic {
		kind := "join"
		r := -1
		if m.Remove >= 0 {
			kind, r = "remove", m.Remove
		}
		evs = append(evs, Event{Kind: kind, At: m.AtSample, Replica: r, Stage: -1})
	}
	return evs
}

// Event is one materialized schedule entry — the flattened, sorted dump of
// everything a compiled scenario will inject. Tests pin schedule determinism
// on it (same spec ⇒ deep-equal event lists).
type Event struct {
	// Kind is "crash", "stall", "ckpt-fail", "remove", "join" or "regime".
	Kind string
	// At is the event coordinate: global sample cursor (crash, remove, join),
	// stage-update index (stall, regime), or save ordinal (ckpt-fail).
	At      int
	Replica int
	Stage   int
	// Name is the regime name (regime events only).
	Name string
}

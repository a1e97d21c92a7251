package sync

import (
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
)

// netReplica adapts a bare network with per-stage optimizers to the Replica
// interface, standing in for an engine.
type netReplica struct {
	net     *nn.Network
	opts    []*optim.Momentum
	updates []int
	step    int
}

func newNetReplica(seed int64, trackPrev bool) *netReplica {
	net := models.DeepMLP(4, 6, 2, 3, seed)
	r := &netReplica{net: net, updates: make([]int, net.NumStages())}
	for range net.Stages {
		o := optim.NewMomentum(0.1, 0.9)
		o.TrackPrev = trackPrev
		r.opts = append(r.opts, o)
	}
	return r
}

func (r *netReplica) NumStages() int                       { return r.net.NumStages() }
func (r *netReplica) StageParams(i int) []*nn.Param        { return r.net.Stages[i].Params() }
func (r *netReplica) StageOptimizer(i int) *optim.Momentum { return r.opts[i] }
func (r *netReplica) StageUpdates(i int) int               { return r.updates[i] }
func (r *netReplica) SetStageUpdates(i, u int)             { r.updates[i] = u }
func (r *netReplica) UpdateStep() int                      { return r.step }
func (r *netReplica) SetUpdateStep(step int)               { r.step = step }

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		name string
		k    int
		grad bool
	}{
		{"", "none", 0, false},
		{"none", "none", 0, false},
		{"sync-grad", "sync-grad", 0, true},
		{"avg-every-1", "avg-every-1", 1, false},
		{"avg-every-64", "avg-every-64", 64, false},
	} {
		p, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if p.Name() != tc.name || p.Interval() != tc.k || p.GradReduce() != tc.grad {
			t.Fatalf("Parse(%q) = %s/%d/%v, want %s/%d/%v",
				tc.in, p.Name(), p.Interval(), p.GradReduce(), tc.name, tc.k, tc.grad)
		}
	}
	for _, bad := range []string{"avg-every-0", "avg-every--3", "avg-every-x", "avg", "gossip"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// scrambleState gives a replica distinct weights, velocities and prev
// buffers derived from seed.
func scrambleState(r *netReplica, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < r.NumStages(); s++ {
		for _, p := range r.StageParams(s) {
			for i := range p.W.Data {
				p.W.Data[i] = rng.NormFloat64()
			}
			vel, _ := r.opts[s].Gather(p)
			for i := range vel {
				vel[i] = rng.NormFloat64()
			}
			if r.opts[s].TrackPrev {
				prev := r.opts[s].Prev(p)
				for i := range prev {
					prev[i] = rng.NormFloat64()
				}
			}
		}
		r.updates[s] = int(seed)
	}
	r.step = int(seed)
}

func TestAverageStateMeansAndDeterminism(t *testing.T) {
	mk := func() []Replica {
		a, b := newNetReplica(1, true), newNetReplica(1, true)
		scrambleState(a, 3)
		scrambleState(b, 4)
		return []Replica{a, b}
	}
	reps := mk()
	a, b := reps[0].(*netReplica), reps[1].(*netReplica)
	// Expected mean of the first weight, computed before averaging.
	p0a, p0b := a.StageParams(0)[0], b.StageParams(0)[0]
	want := (p0a.W.Data[0] + p0b.W.Data[0]) * 0.5
	AverageState(reps)
	if p0a.W.Data[0] != want || p0b.W.Data[0] != want {
		t.Fatalf("averaged weight %v / %v, want %v", p0a.W.Data[0], p0b.W.Data[0], want)
	}
	// All state equal across replicas afterwards.
	for s := 0; s < a.NumStages(); s++ {
		for j, pa := range a.StageParams(s) {
			pb := b.StageParams(s)[j]
			va, qa := a.opts[s].Gather(pa)
			vb, qb := b.opts[s].Gather(pb)
			for i := range pa.W.Data {
				if pa.W.Data[i] != pb.W.Data[i] || va[i] != vb[i] || qa[i] != qb[i] {
					t.Fatalf("stage %d param %d not identical after AverageState", s, j)
				}
			}
		}
	}
	// Determinism: a second pair with the same scrambles averages to the
	// same bits.
	reps2 := mk()
	AverageState(reps2)
	a2 := reps2[0].(*netReplica)
	for s := 0; s < a.NumStages(); s++ {
		for j, pa := range a.StageParams(s) {
			p2 := a2.StageParams(s)[j]
			for i := range pa.W.Data {
				if pa.W.Data[i] != p2.W.Data[i] {
					t.Fatal("AverageState is not deterministic")
				}
			}
		}
	}
	// Single replica: untouched.
	solo := newNetReplica(1, false)
	scrambleState(solo, 5)
	before := solo.net.SnapshotWeights()
	AverageState([]Replica{solo})
	after := solo.net.SnapshotWeights()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatal("AverageState mutated a single replica")
			}
		}
	}
}

func TestBroadcastCopiesEverything(t *testing.T) {
	a, b := newNetReplica(1, true), newNetReplica(1, true)
	scrambleState(a, 7)
	scrambleState(b, 8)
	Broadcast([]Replica{a, b}, 0)
	if b.step != a.step {
		t.Fatalf("schedule step %d, want %d", b.step, a.step)
	}
	for s := 0; s < a.NumStages(); s++ {
		if b.updates[s] != a.updates[s] {
			t.Fatalf("stage %d update counter %d, want %d", s, b.updates[s], a.updates[s])
		}
		for j, pa := range a.StageParams(s) {
			pb := b.StageParams(s)[j]
			va, qa := a.opts[s].Gather(pa)
			vb, qb := b.opts[s].Gather(pb)
			for i := range pa.W.Data {
				if pa.W.Data[i] != pb.W.Data[i] || va[i] != vb[i] || qa[i] != qb[i] {
					t.Fatalf("stage %d param %d not broadcast", s, j)
				}
			}
		}
	}
}

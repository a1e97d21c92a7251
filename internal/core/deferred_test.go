package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// A dense layer's batch-one weight gradient stays pending as dy ⊗ x until
// something reads G (nn.Param.PendingOuter). These tests hold the two
// readers that live in this package — the sync-grad average and the
// fill-and-drain accumulation of several batch-one backwards into one G —
// to the bits of the GEMM path, on inputs with signed zeros, subnormals and
// products that underflow to a negative zero.

// edgeVec returns a [1, n] vector mixing signed zeros, subnormals and tiny
// values (whose products underflow) with ordinary values from rng.
func edgeVec(n int, rng *rand.Rand) *tensor.Tensor {
	edge := []float64{math.Copysign(0, -1), 0, 5e-324, -2.5e-320, 1e-200, -1e-200}
	t := tensor.New(1, n)
	for i := range t.Data {
		if i%2 == 0 && i/2 < len(edge) {
			t.Data[i] = edge[(i/2+n)%len(edge)]
		} else {
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

func gradBits(t *testing.T, what string, a, b *nn.Param) {
	t.Helper()
	ga, gb := a.Grad().Data, b.Grad().Data
	for i := range ga {
		if math.Float64bits(ga[i]) != math.Float64bits(gb[i]) {
			t.Fatalf("%s %s[%d]: deferred %v, materialised %v", what, a.Name, i, ga[i], gb[i])
		}
	}
}

// TestDeferredGradSyncGradAverage runs the sync-grad per-stage average over
// R = 3 replicas whose dense gradients are still pending, and over the same
// gradients accumulated by the GEMM.
func TestDeferredGradSyncGradAverage(t *testing.T) {
	const r, in, out = 3, 11, 6
	rng := rand.New(rand.NewSource(5))
	averaged := func(deferred bool, dys, xs []*tensor.Tensor) []*PBTrainer {
		c := &Cluster{stepped: make([]*PBTrainer, r)}
		for i := range c.stepped {
			d := nn.NewDense("fc", in, out, true, rand.New(rand.NewSource(1)))
			d.Weight.ZeroGrad()
			if !deferred {
				d.Weight.Grad()
			}
			d.Backward(dys[i].Clone(), xs[i].Clone(), nil, nil)
			if _, _, ok := d.Weight.PendingOuter(); ok != deferred {
				t.Fatalf("replica %d: pending outer %v, want %v", i, ok, deferred)
			}
			c.stepped[i] = &PBTrainer{stageSet: stageSet{stages: []*stageState{{params: d.Params()}}}, held: []bool{true}}
		}
		c.averageStage(0)
		return c.stepped
	}
	dys, xs := make([]*tensor.Tensor, r), make([]*tensor.Tensor, r)
	for i := range dys {
		dys[i], xs[i] = edgeVec(out, rng), edgeVec(in, rng)
	}
	got, want := averaged(true, dys, xs), averaged(false, dys, xs)
	for i := range got {
		for j, p := range got[i].StageParams(0) {
			gradBits(t, "averaged", p, want[i].StageParams(0)[j])
		}
	}
}

// TestDeferredGradFillDrainMatchesSGD pins fill-and-drain, whose first
// batch-one backward of each batch defers and whose second materialises
// and accumulates, to mini-batch SGDM bit for bit. The batch size is a power
// of two, so fill-and-drain's 1/N loss scaling is exact and any difference
// would come from the gradient path. Inputs carry signed zeros and
// subnormals.
func TestDeferredGradFillDrainMatchesSGD(t *testing.T) {
	train, _ := data.GaussianBlobs(12, 3, 32, 0, 1, 0.5, 9)
	rng := rand.New(rand.NewSource(9))
	for _, s := range train.Samples {
		copy(s, edgeVec(len(s), rng).Data[:6])
	}
	netFD, netSGD := models.DeepMLP(12, 10, 3, 3, 9), models.DeepMLP(12, 10, 3, 3, 9)
	cfg := Config{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-3}
	fd, sgd := NewFillDrainTrainer(netFD, cfg, 8), NewSGDTrainer(netSGD, cfg, 8)
	for epoch := 0; epoch < 2; epoch++ {
		fd.TrainEpoch(train, nil, nil, nil)
		sgd.TrainEpoch(train, nil, nil, nil)
	}
	for i, p := range netFD.Params() {
		q := netSGD.Params()[i]
		for k := range p.W.Data {
			if math.Float64bits(p.W.Data[k]) != math.Float64bits(q.W.Data[k]) {
				t.Fatalf("%s[%d]: fill-and-drain %v, SGDM %v", p.Name, k, p.W.Data[k], q.W.Data[k])
			}
		}
		vf, vs := fd.opt.VelIfTracked(p), sgd.opt.VelIfTracked(q)
		for k := range vf {
			if math.Float64bits(vf[k]) != math.Float64bits(vs[k]) {
				t.Fatalf("%s velocity[%d]: fill-and-drain %v, SGDM %v", p.Name, k, vf[k], vs[k])
			}
		}
	}
}

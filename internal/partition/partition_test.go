package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func syntheticCosts(vals ...float64) []StageCost {
	out := make([]StageCost, len(vals))
	for i, v := range vals {
		out[i] = StageCost{Name: "s", MACs: v}
	}
	return out
}

func TestPartitionKnownOptimum(t *testing.T) {
	// Classic painters-partition instance: [10, 20, 30, 40] into 2 →
	// [10,20,30 | 40] with bottleneck 60.
	costs := syntheticCosts(10, 20, 30, 40)
	bounds := Partition(costs, 2)
	if Bottleneck(costs, bounds) != 60 {
		t.Fatalf("bottleneck %v, want 60 (bounds %v)", Bottleneck(costs, bounds), bounds)
	}
}

func TestPartitionSinglePart(t *testing.T) {
	costs := syntheticCosts(5, 5, 5)
	bounds := Partition(costs, 1)
	if len(bounds) != 1 || bounds[0] != 3 {
		t.Fatalf("bounds %v", bounds)
	}
	if Bottleneck(costs, bounds) != 15 {
		t.Fatal("single-part bottleneck wrong")
	}
}

func TestPartitionMorePartsThanStages(t *testing.T) {
	costs := syntheticCosts(1, 2)
	bounds := Partition(costs, 10)
	if len(bounds) > 2 {
		t.Fatalf("bounds %v exceed stage count", bounds)
	}
	if Bottleneck(costs, bounds) != 2 {
		t.Fatal("should split into singletons with bottleneck 2")
	}
}

// Property: the DP result is never worse than a greedy equal-count split,
// and the bottleneck is at least total/workers and at least max element.
func TestPartitionOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		w := 1 + rng.Intn(6)
		costs := make([]StageCost, n)
		total, maxc := 0.0, 0.0
		for i := range costs {
			costs[i].MACs = 1 + rng.Float64()*99
			total += costs[i].MACs
			if costs[i].MACs > maxc {
				maxc = costs[i].MACs
			}
		}
		bounds := Partition(costs, w)
		got := Bottleneck(costs, bounds)
		// Lower bounds.
		if got < maxc-1e-9 || got < total/float64(w)-1e-9 {
			return false
		}
		// Upper bound: equal-count contiguous split.
		k := len(bounds)
		greedy := make([]int, 0, k)
		for i := 1; i <= k; i++ {
			greedy = append(greedy, i*n/k)
		}
		return got <= Bottleneck(costs, greedy)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEstimateCostsResNet(t *testing.T) {
	net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
	costs := EstimateCosts(net, []int{1, 3, 8, 8})
	if len(costs) != net.NumStages() {
		t.Fatalf("cost count %d != stages %d", len(costs), net.NumStages())
	}
	// Conv stages must cost more than sum nodes.
	var convMax, sumMax float64
	for _, c := range costs {
		if c.Params > 0 && c.MACs > convMax {
			convMax = c.MACs
		}
		if c.Params == 0 && c.MACs > sumMax {
			sumMax = c.MACs
		}
	}
	if convMax <= sumMax {
		t.Fatalf("conv stages should dominate: conv %v vs sum %v", convMax, sumMax)
	}
}

func TestRegroupPreservesFunction(t *testing.T) {
	// The regrouped network must compute the same function (same params,
	// same forward values).
	net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 2))
	costs := EstimateCosts(net, []int{1, 3, 8, 8})
	bounds := Partition(costs, 5)
	coarse := Regroup(net, bounds)
	if coarse.NumStages() != len(bounds) {
		t.Fatalf("coarse stages %d, want %d", coarse.NumStages(), len(bounds))
	}
	x := tensor.New(2, 3, 8, 8)
	rng := rand.New(rand.NewSource(3))
	tensor.Normal(x, 1, rng)
	y1, _ := net.Forward(x)
	y2, _ := coarse.Forward(x)
	if !y1.AllClose(y2, 1e-12) {
		t.Fatal("regrouped network computes a different function")
	}
	// Parameters are shared, not copied.
	if len(coarse.Params()) != len(net.Params()) {
		t.Fatal("parameter count changed")
	}
	if coarse.Params()[0] != net.Params()[0] {
		t.Fatal("parameters are not shared")
	}
}

func TestRegroupGradientsMatch(t *testing.T) {
	netA := models.ResNet(models.MiniResNet(20, 4, 8, 4, 5))
	netB := models.ResNet(models.MiniResNet(20, 4, 8, 4, 5))
	costs := EstimateCosts(netB, []int{1, 3, 8, 8})
	coarse := Regroup(netB, Partition(costs, 4))

	x := tensor.New(1, 3, 8, 8)
	rng := rand.New(rand.NewSource(6))
	tensor.Normal(x, 1, rng)
	netA.ZeroGrad()
	coarse.ZeroGrad()
	netA.LossAndGrad(x, []int{1})
	coarse.LossAndGrad(x, []int{1})
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		if !pa[i].Grad().AllClose(pb[i].Grad(), 1e-12) {
			t.Fatalf("gradient mismatch at %s", pa[i].Name)
		}
	}
}

func TestCoarsePipelineTrainsWithPB(t *testing.T) {
	// Regrouped pipelines must work through the PB engine, with shorter
	// delays than the fine-grained original.
	cfgData := data.CIFAR10Like(8, 40, 0, 7)
	cfgData.Classes = 4
	train, _ := data.GenerateImages(cfgData)
	net := models.ResNet(models.MiniResNet(20, 4, 8, 4, 8))
	coarse, ratio := Balance(net, []int{1, 3, 8, 8}, 6)
	if ratio < 1 {
		t.Fatalf("bottleneck/mean ratio %v < 1 impossible", ratio)
	}
	if coarse.NumStages() > 6 {
		t.Fatalf("coarse stages %d > 6", coarse.NumStages())
	}
	pb := core.NewPBTrainer(coarse, core.ScaledConfig(0.05, 0.9, 16, 1))
	loss, _ := pb.TrainEpoch(train, nil, nil, nil)
	if math.IsNaN(loss) {
		t.Fatal("coarse PB training NaN")
	}
	maxFine := 2 * (net.NumStages() - 1)
	maxCoarse := 2 * (coarse.NumStages() - 1)
	if maxCoarse >= maxFine {
		t.Fatal("coarser pipeline should have shorter max delay")
	}
}

func TestBoundsValidation(t *testing.T) {
	net := models.DeepMLP(4, 4, 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad bounds")
		}
	}()
	Regroup(net, []int{1}) // does not cover all stages
}

// countingStage wraps a Stage and tracks contexts outstanding between
// Forward and Backward — the probe-leak detector for EstimateCosts.
type countingStage struct {
	inner       nn.Stage
	outstanding int
}

func (c *countingStage) Name() string        { return c.inner.Name() }
func (c *countingStage) Params() []*nn.Param { return c.inner.Params() }

func (c *countingStage) Forward(p *nn.Packet, ar *tensor.Arena, par *tensor.Parallel) (*nn.Packet, any) {
	q, ctx := c.inner.Forward(p, ar, par)
	c.outstanding++
	return q, ctx
}

func (c *countingStage) Backward(dp *nn.Packet, ctx any, ar *tensor.Arena, par *tensor.Parallel) *nn.Packet {
	c.outstanding--
	return c.inner.Backward(dp, ctx, ar, par)
}

func (c *countingStage) ReleaseCtx(ctx any, ar *tensor.Arena) {
	c.outstanding--
	c.inner.ReleaseCtx(ctx, ar)
}

// TestEstimateCostsReleasesContexts is the regression test for the probe
// leak: EstimateCosts used to drop every Forward context on the floor,
// leaving one sample permanently in flight per stage. The Layer/Stage
// contract ties context (and, for arena-backed callers, pooled buffer)
// lifetime to the matching Backward, so the probe must unwind.
func TestEstimateCostsReleasesContexts(t *testing.T) {
	net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 3))
	counting := make([]*countingStage, net.NumStages())
	for i, st := range net.Stages {
		counting[i] = &countingStage{inner: st}
		net.Stages[i] = counting[i]
	}
	EstimateCosts(net, []int{1, 3, 8, 8})
	for i, cs := range counting {
		if cs.outstanding != 0 {
			t.Fatalf("stage %d (%s) holds %d unreleased probe contexts", i, cs.Name(), cs.outstanding)
		}
	}
}

// TestEstimateCostsLeavesTrainingStateUntouched pins that the probe's
// backward unwind accumulates exactly zero gradient and that repeated
// probes agree.
func TestEstimateCostsLeavesTrainingStateUntouched(t *testing.T) {
	net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 3))
	before := net.SnapshotWeights()
	costsA := EstimateCosts(net, []int{1, 3, 8, 8})
	for _, p := range net.Params() {
		for i, g := range p.Grad().Data {
			if g != 0 {
				t.Fatalf("param %q gradient[%d] = %v after probe, want 0", p.Name, i, g)
			}
		}
	}
	after := net.SnapshotWeights()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("probe mutated weights at param %d elem %d", i, j)
			}
		}
	}
	costsB := EstimateCosts(net, []int{1, 3, 8, 8})
	if len(costsA) != len(costsB) {
		t.Fatalf("probe not idempotent: %d vs %d stages", len(costsA), len(costsB))
	}
	for i := range costsA {
		if costsA[i] != costsB[i] {
			t.Fatalf("stage %d costs differ across probes: %+v vs %+v", i, costsA[i], costsB[i])
		}
	}
}

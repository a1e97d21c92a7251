package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/schedviz"
)

// cifarTask builds the synthetic CIFAR-10 stand-in at this scale. The
// paper's pad-crop/flip augmentation is redundant here: the generator bakes
// translation and amplitude jitter into every sample (data.ImageConfig), and
// explicit pad-crop at 8x8 destroys too much signal. PadCropFlip remains
// available via data.Augmenter for larger image sizes.
func cifarTask(s Scale, seed int64) (*data.Dataset, *data.Dataset, data.Augmenter) {
	cfg := data.CIFAR10Like(s.ImageSize, s.Train, s.Test, seed)
	train, test := data.GenerateImages(cfg)
	return train, test, nil
}

// imagenetTask builds the synthetic ImageNet stand-in. It uses more
// classes than the CIFAR task and a slightly lower noise level plus 1.5x
// the samples so the 20-way problem carries enough signal for the deep
// RN56 pipeline at this scale.
func imagenetTask(s Scale, seed int64) (*data.Dataset, *data.Dataset, data.Augmenter) {
	cfg := data.ImageNetLike(s.ImageSize, s.Train*3/2, s.Test, seed)
	cfg.NoiseStd = 0.25
	train, test := data.GenerateImages(cfg)
	return train, test, nil
}

// Fig8CIFARResNet20 reproduces Fig. 8: validation-accuracy curves for
// ResNet-20 (mini) under SGDM, PB, PB+LWPD, PB+SCD and PB+LWPvD+SCD.
func Fig8CIFARResNet20(w io.Writer, s Scale) {
	train, test, aug := cifarTask(s, 101)
	build := func(seed int64) *nn.Network {
		return models.ResNet(models.MiniResNet(20, s.Width, s.ImageSize, 10, seed))
	}
	fmt.Fprintf(w, "Fig. 8 — CIFAR10(-like) ResNet20 validation accuracy (scale=%s)\n", s.Name)
	var series []metrics.Series
	tab := metrics.NewTable("Training Method", "Val Accuracy")
	for _, m := range Fig8Methods {
		r := RunMethod(build, train, test, m, DefaultRef, s.Epochs, aug, 1)
		xs := make([]float64, len(r.Curve))
		ys := make([]float64, len(r.Curve))
		for i, a := range r.Curve {
			xs[i], ys[i] = float64(i+1), a*100
		}
		series = append(series, metrics.Series{Name: m.Name, X: xs, Y: ys})
		tab.AddRow(m.Name, fmt.Sprintf("%.1f%%", r.FinalValAcc*100))
	}
	fmt.Fprint(w, tab.String())
	if s.Epochs > 1 {
		fmt.Fprint(w, metrics.AsciiPlot(series, 60, 12, false))
	}
}

// Fig9ImageNetResNet50 reproduces Fig. 9 with the deeper-pipeline analogue:
// the paper's ImageNet ResNet50 has 78 stages; our RN56 mini (85 stages) is
// the closest family member, trained on the ImageNet-like task.
func Fig9ImageNetResNet50(w io.Writer, s Scale) {
	train, test, aug := imagenetTask(s, 202)
	build := func(seed int64) *nn.Network {
		return models.ResNet(models.MiniResNet(56, s.Width, s.ImageSize, 20, seed))
	}
	fmt.Fprintf(w, "Fig. 9 — ImageNet(-like) deep-pipeline ResNet (RN56-mini, 85 stages vs paper's RN50, 78 stages; scale=%s)\n", s.Name)
	tab := metrics.NewTable("Training Method", "Val Accuracy")
	for _, m := range Fig8Methods {
		r := RunMethod(build, train, test, m, DefaultRef, s.Epochs+2, aug, 2)
		tab.AddRow(m.Name, fmt.Sprintf("%.1f%%", r.FinalValAcc*100))
	}
	fmt.Fprint(w, tab.String())
}

// Table1CIFARFamilies reproduces Tables 1/5: final validation accuracy for
// the VGG and ResNet families under SGDM, PB and PB+LWPvD+SCD, with stage
// counts.
func Table1CIFARFamilies(w io.Writer, s Scale, deep bool) {
	train, test, aug := cifarTask(s, 303)
	nets := CIFARFamilies(s, 10, deep)
	familyTable(w, "Table 1/5 — CIFAR10(-like) final validation accuracy", nets, Table1Methods, s, train, test, aug)
}

// Table2WeightStashing reproduces Table 2: weight stashing does not help PB
// in this regime.
func Table2WeightStashing(w io.Writer, s Scale) {
	train, test, aug := cifarTask(s, 404)
	methods := []MethodSpec{
		SGDMRef,
		PB,
		{Name: "PB+WS", Mit: core.WeightStash},
	}
	nets := CIFARFamilies(s, 10, false)[:4] // VGG11..RN20 subset
	familyTable(w, "Table 2 — weight stashing ablation", nets, methods, s, train, test, aug)
}

// Table3SpecTrain reproduces Table 3: SpecTrain vs the paper's methods.
func Table3SpecTrain(w io.Writer, s Scale) {
	train, test, aug := cifarTask(s, 505)
	methods := []MethodSpec{
		SGDMRef,
		PB,
		{Name: "PB+LWPvD+SCD", Mit: core.LWPvDSCD},
		{Name: "PB+SpecTrain", Mit: core.SpecTrain},
	}
	all := CIFARFamilies(s, 10, false)
	nets := []NamedNet{all[1], all[3]} // VGG13, RN20 (paper: VGG13/RN20/RN56)
	familyTable(w, "Table 3 — SpecTrain comparison", nets, methods, s, train, test, aug)
}

// Table4Overcompensation reproduces Table 4: doubling the prediction horizon
// (LWP2D) or the spike delay (SC2D).
func Table4Overcompensation(w io.Writer, s Scale) {
	train, test, aug := cifarTask(s, 606)
	methods := []MethodSpec{
		PB,
		{Name: "PB+LWPD", Mit: core.LWPvD},
		{Name: "PB+LWP2D", Mit: core.LWP2D},
		{Name: "PB+SCD", Mit: core.SCD},
		{Name: "PB+SC2D", Mit: core.SC2D},
	}
	all := CIFARFamilies(s, 10, false)
	nets := []NamedNet{all[3], all[4]} // RN20, RN32
	familyTable(w, "Table 4 — overcompensation (Appendix E)", nets, methods, s, train, test, aug)
}

// Table6LWPForms reproduces Table 6: velocity vs weight-difference forms of
// LWP when combined with SC.
func Table6LWPForms(w io.Writer, s Scale) {
	train, test, aug := cifarTask(s, 707)
	methods := []MethodSpec{
		PB,
		{Name: "PB+LWPvD+SCD", Mit: core.LWPvDSCD},
		{Name: "PB+LWPwD+SCD", Mit: core.LWPwDSCD},
	}
	all := CIFARFamilies(s, 10, false)
	nets := []NamedNet{all[3], all[4]} // RN20, RN32
	familyTable(w, "Table 6 — LWPv vs LWPw (both + SCD)", nets, methods, s, train, test, aug)
}

// Fig16EngineValidation reproduces the GProp validation of Fig. 16: batch
// SGD and fill-and-drain SGD must coincide (here: exactly), and both train.
func Fig16EngineValidation(w io.Writer, s Scale) {
	train, test, _ := cifarTask(s, 808)
	fmt.Fprintf(w, "Fig. 16 — engine validation: batch SGDM vs fill&drain pipeline SGD (scale=%s)\n", s.Name)
	netA := models.VGG(models.MiniVGG(11, s.vggDiv(), s.ImageSize, 10, 9))
	netB := models.VGG(models.MiniVGG(11, s.vggDiv(), s.ImageSize, 10, 9))
	cfg := core.Config{LR: DefaultRef.Eta, Momentum: DefaultRef.Momentum}
	sgd := core.NewSGDTrainer(netA, cfg, 16)
	fd := core.NewFillDrainTrainer(netB, cfg, 16)
	var curves [2][]float64
	for e := 0; e < s.Epochs; e++ {
		sgd.TrainEpoch(train, nil, nil, nil)
		fd.TrainEpoch(train, nil, nil, nil)
		xs, ys := test.Batches(32)
		_, a1 := netA.Evaluate(xs, ys)
		_, a2 := netB.Evaluate(xs, ys)
		curves[0] = append(curves[0], a1*100)
		curves[1] = append(curves[1], a2*100)
	}
	maxDev := 0.0
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if d := math.Abs(pa[i].W.Data[j] - pb[i].W.Data[j]); d > maxDev {
				maxDev = d
			}
		}
	}
	tab := metrics.NewTable("Mode", "ValAcc/epoch", "Pipeline util")
	tab.AddRow("SGDM (batch 16)", fmt.Sprintf("%.1f%%", curves[0][len(curves[0])-1]), "n/a")
	tab.AddRow("Fill&Drain SGD", fmt.Sprintf("%.1f%%", curves[1][len(curves[1])-1]),
		fmt.Sprintf("%.3f (Eq.1 bound %.3f)", fd.Utilization(), schedviz.UtilizationBound(16, netB.NumStages())))
	fmt.Fprint(w, tab.String())
	fmt.Fprintf(w, "max |w_SGD − w_fill&drain| over all parameters: %.2e (identical trajectories)\n", maxDev)
}

// Fig17BatchScaling reproduces Fig. 17: training at the reference batch size
// versus batch size one with Eq. 9-scaled hyperparameters produces similar
// training curves.
func Fig17BatchScaling(w io.Writer, s Scale) {
	train, test, aug := cifarTask(s, 909)
	fmt.Fprintf(w, "Fig. 17 — Eq. 9 hyperparameter scaling: batch %d vs batch 1 (scale=%s)\n", DefaultRef.RefBatch, s.Name)
	build := func(seed int64) *nn.Network {
		return models.VGG(models.MiniVGG(11, s.vggDiv(), s.ImageSize, 10, seed))
	}
	// One permutation stream shared by both arms, plus an independently
	// seeded RNG per arm: drawing Perm twice from a single RNG would train
	// the two arms on different sample orders (and different augmentation
	// draws), conflating the Eq. 9 scaling error with data-order noise.
	// (The other two-arm runners are immune: Fig16EngineValidation feeds
	// both arms sequentially with no RNG, and the Ablation* comparisons go
	// through RunMethod, which seeds a fresh RNG per arm.)
	permRng := rand.New(rand.NewSource(4))
	rngRef := rand.New(rand.NewSource(40))
	rngOne := rand.New(rand.NewSource(41))

	// Reference batch run.
	netRef := build(10)
	cfgRef := core.Config{LR: DefaultRef.Eta, Momentum: DefaultRef.Momentum}
	trRef := core.NewSGDTrainer(netRef, cfgRef, DefaultRef.RefBatch)
	// Batch-one run with scaled hyperparameters (sequential SGD, no
	// pipeline: this isolates the scaling rule itself, as in H.4).
	netOne := build(10)
	eta1, m1 := optim.Scale(DefaultRef.Eta, DefaultRef.Momentum, DefaultRef.RefBatch, 1)
	cfgOne := core.Config{LR: eta1, Momentum: m1}
	trOne := core.NewSGDTrainer(netOne, cfgOne, 1)

	tab := metrics.NewTable("Epoch", fmt.Sprintf("batch %d", DefaultRef.RefBatch), "batch 1 (Eq. 9)")
	maxGap := 0.0
	for e := 0; e < s.Epochs; e++ {
		perm := train.Perm(permRng)
		trRef.TrainEpoch(train, perm, aug, rngRef)
		trOne.TrainEpoch(train, perm, aug, rngOne)
		xs, ys := test.Batches(32)
		_, aRef := netRef.Evaluate(xs, ys)
		_, aOne := netOne.Evaluate(xs, ys)
		if g := math.Abs(aRef - aOne); g > maxGap {
			maxGap = g
		}
		tab.AddRow(e+1, fmt.Sprintf("%.1f%%", aRef*100), fmt.Sprintf("%.1f%%", aOne*100))
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintf(w, "max per-epoch validation gap: %.1f%%\n", maxGap*100)
}

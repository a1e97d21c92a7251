// Quickstart: train a small MLP pipeline with pipelined backpropagation
// through the public repro/train façade.
//
// Every hidden layer is its own pipeline stage; the update size is one and
// weights update without draining the pipeline. Spike compensation plus
// linear weight prediction (the paper's best combination) mitigate the
// per-stage gradient delays. The façade applies the paper's Eq. 9 scaling
// from the reference batch-32 hyperparameters to update size one.
//
// Run with: go run ./examples/quickstart [-engine async] [-epochs 40]
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/train"
)

func main() {
	engine := flag.String("engine", "seq", "PB engine: seq|lockstep|async")
	epochs := flag.Int("epochs", 40, "training epochs")
	samples := flag.Int("samples", 512, "training samples")
	flag.Parse()

	// A non-linearly-separable task: two interleaved spirals.
	trainSet := data.TwoSpirals(*samples, 0.02, 1)
	testSet := data.TwoSpirals(256, 0.02, 2)

	// A 5-stage pipeline: 4 hidden Dense+LayerNorm+ReLU stages + classifier.
	builder := func(seed int64) *nn.Network { return models.DeepMLP(2, 32, 4, 2, seed) }
	stages := builder(3).NumStages()
	fmt.Printf("pipeline stages: %d, per-stage delays: %v, engine: %s\n",
		stages, core.StageDelays(stages), *engine)

	tr := train.New(builder,
		train.WithEngine(*engine),
		train.WithSeed(3),
		train.WithMitigations(core.LWPvDSCD), // combined mitigation: LWPv + SC
		train.WithRefHyper(train.RefHyper{Eta: 0.1, Momentum: 0.9, RefBatch: 32}),
		train.OnEpochEnd(func(e train.EpochEvent) {
			if e.Epoch%5 == 0 || e.Epoch == 1 {
				fmt.Printf("epoch %2d  train loss %.3f  train acc %5.1f%%  val acc %5.1f%%\n",
					e.Epoch, e.TrainLoss, e.TrainAcc*100, e.ValAcc*100)
			}
		}))
	defer tr.Close()

	report, err := tr.Fit(context.Background(), trainSet, testSet, *epochs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("final val acc %.1f%% after %d samples\n", report.ValAcc*100, report.Samples)
	fmt.Printf("pipeline utilization: %.3f (fill&drain at N=1 would be bounded by %.3f)\n",
		report.Utilization, core.UtilizationBound(1, report.Stages))
}

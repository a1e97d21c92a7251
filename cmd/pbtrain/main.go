// Command pbtrain trains a network on a synthetic dataset with any of the
// paper's training methods and reports per-epoch validation accuracy plus
// the pipeline geometry (stage count, per-stage delays, utilization). It is
// a thin CLI over the repro/train façade.
//
// Usage:
//
//	pbtrain -model rn20 -method pb+lwpvd+scd -epochs 8
//	pbtrain -model mlp -depth 12 -method pb -epochs 4
//	pbtrain -model vgg11 -method sgdm
//	pbtrain -model rn20 -method pb -engine async   # free-running pipeline
//	pbtrain -model rn20 -checkpoint rn20.ckpt      # save a resumable snapshot
//	pbtrain -model rn20 -resume rn20.ckpt          # continue from it
//	pbtrain -model rn20 -obs :9090                 # live /metrics + /events
//
// The -obs listener closes a connection that has not sent its full request
// headers within 10 s.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/partition"
	"repro/internal/schedviz"
	syncpol "repro/internal/sync"
	"repro/train"
)

// readHeaderTimeout bounds how long an -obs client may take to send its
// request headers, so a connection that trickles a partial header is closed
// instead of holding a goroutine and a socket for the whole run.
const readHeaderTimeout = 10 * time.Second

// mitigations maps method names to presets.
var mitigations = map[string]core.Mitigation{
	"pb":            core.None,
	"pb+scd":        core.SCD,
	"pb+sc2d":       core.SC2D,
	"pb+lwpvd":      core.LWPvD,
	"pb+lwpwd":      core.LWPwD,
	"pb+lwp2d":      core.LWP2D,
	"pb+lwpvd+scd":  core.LWPvDSCD,
	"pb+lwpwd+scd":  core.LWPwDSCD,
	"pb+spectrain":  core.SpecTrain,
	"pb+ws":         core.WeightStash,
	"pb+gradshrink": {GradShrink: 0.9},
}

// models the CLI accepts, keyed to their builder families.
var knownModels = []string{"rn20", "rn32", "rn44", "rn56", "rn110", "vgg11", "vgg13", "vgg16", "mlp"}

// fail prints a usage-style error and exits non-zero — bad flags must not
// panic mid-run.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pbtrain: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	model := flag.String("model", "rn20", "model: "+strings.Join(knownModels, "|"))
	method := flag.String("method", "pb+lwpvd+scd", "sgdm or one of: "+keys())
	engine := flag.String("engine", "seq", "PB engine: "+strings.Join(core.EngineNames(), "|"))
	epochs := flag.Int("epochs", 8, "training epochs")
	width := flag.Int("width", 4, "ResNet base width / MLP width scale")
	depth := flag.Int("depth", 6, "MLP hidden-stage count")
	size := flag.Int("size", 12, "image size")
	trainN := flag.Int("train", 600, "training samples")
	testN := flag.Int("test", 200, "test samples")
	eta := flag.Float64("eta", 0.05, "reference learning rate (at -refbatch)")
	mom := flag.Float64("momentum", 0.9, "reference momentum")
	refBatch := flag.Int("refbatch", 32, "reference batch size the hyperparameters were tuned for")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "regroup the pipeline onto this many balanced workers (0 = fine-grained)")
	kernelWorkers := flag.Int("kernel-workers", 0, "engine compute-worker budget, split between stage concurrency and intra-kernel parallelism (0 = serial kernels; results are bit-identical at any value)")
	replicas := flag.Int("replicas", 0, "run this many data-parallel pipeline replicas behind a cluster engine (0 = single pipeline)")
	syncName := flag.String("sync", "none", "cluster weight-sync policy: none | avg-every-<k> | sync-grad (needs -replicas)")
	ckpt := flag.String("checkpoint", "", "save a resumable pipeline snapshot to this file after the final epoch")
	resume := flag.String("resume", "", "resume weights/optimizer/schedule from this snapshot before training")
	obsAddr := flag.String("obs", "", "serve live observability (GET /metrics, GET /events) on this address while training")
	flag.Parse()

	// Validate every selector up front: an unknown model, method or engine
	// must exit with a usage message, not panic somewhere mid-run.
	sgdm := *method == "sgdm"
	mit, knownMethod := mitigations[*method]
	if !sgdm && !knownMethod {
		fail("unknown method %q; options: sgdm %s", *method, keys())
	}
	if !slices.Contains(knownModels, *model) {
		fail("unknown model %q; options: %s", *model, strings.Join(knownModels, " "))
	}
	if !sgdm && !slices.Contains(core.EngineNames(), *engine) {
		fail("unknown engine %q; options: %s", *engine, strings.Join(core.EngineNames(), " "))
	}
	if *epochs < 0 {
		fail("-epochs %d, want ≥ 0", *epochs)
	}
	if *refBatch < 1 {
		fail("-refbatch %d, want ≥ 1", *refBatch)
	}

	var build train.Builder
	var trainSet, testSet *data.Dataset
	switch {
	case *model == "mlp":
		trainSet, testSet = data.GaussianBlobs(16, 4, *trainN, *testN, 2.2, 1.3, *seed)
		build = func(seed int64) *nn.Network {
			return models.DeepMLP(16, 4**width, *depth, 4, seed+7)
		}
	case strings.HasPrefix(*model, "rn"):
		var d int
		fmt.Sscanf(*model, "rn%d", &d)
		cfg := data.CIFAR10Like(*size, *trainN, *testN, *seed)
		trainSet, testSet = data.GenerateImages(cfg)
		build = func(seed int64) *nn.Network {
			return models.ResNet(models.MiniResNet(d, *width, *size, 10, seed+7))
		}
	default: // vgg
		var d int
		fmt.Sscanf(*model, "vgg%d", &d)
		cfg := data.CIFAR10Like(*size, *trainN, *testN, *seed)
		trainSet, testSet = data.GenerateImages(cfg)
		build = func(seed int64) *nn.Network {
			return models.VGG(models.MiniVGG(d, 64 / *width, *size, 10, seed+7))
		}
	}

	// Validate -workers against the chosen engine and pipeline: regrouping
	// only applies to the PB engines, and cannot exceed the fine-grained
	// stage count. One probe network serves the stage count and, with
	// -workers, the partition display; the Trainer builds its own.
	probe := build(*seed)
	fineStages := probe.NumStages()
	if *workers < 0 {
		fail("-workers %d, want ≥ 0", *workers)
	}
	if *workers > 0 && sgdm {
		fail("-workers regroups the PB pipeline; the sgdm reference has no pipeline (drop -workers or pick a pb method)")
	}
	if *kernelWorkers < 0 {
		fail("-kernel-workers %d, want ≥ 0", *kernelWorkers)
	}
	if *kernelWorkers > 0 && sgdm {
		fail("-kernel-workers budgets the PB engines' kernels; the sgdm reference does not take it (drop -kernel-workers or pick a pb method)")
	}
	if *workers > fineStages {
		fail("-workers %d exceeds the %d fine-grained stages of %s (engine %s runs one worker per stage at most)",
			*workers, fineStages, *model, *engine)
	}
	if *replicas < 0 {
		fail("-replicas %d, want ≥ 0", *replicas)
	}
	policy, perr := syncpol.Parse(*syncName)
	if perr != nil {
		fail("%v", perr)
	}
	if *replicas == 0 && *syncName != "none" {
		fail("-sync %s needs -replicas ≥ 1 (a single pipeline has nothing to synchronize)", *syncName)
	}
	if *replicas > 0 && sgdm {
		fail("-replicas replicates the PB pipeline; the sgdm reference has none (drop -replicas or pick a pb method)")
	}

	s := fineStages
	if *workers > 0 {
		inShape := append([]int{1}, trainSet.Shape...)
		coarse, ratio := partition.Balance(probe, inShape, *workers)
		fmt.Printf("partitioned %d fine stages onto %d workers (bottleneck/mean cost %.2f)\n",
			fineStages, coarse.NumStages(), ratio)
		s = coarse.NumStages()
	}
	fmt.Printf("model=%s stages=%d max-delay=%d method=%s\n", *model, s, 2*(s-1), *method)
	if !sgdm {
		// sync-grad averages R gradients per update: effective update size R.
		updateSize := 1
		if policy.GradReduce() && *replicas > 0 {
			updateSize = *replicas
		}
		eta1, m1 := optim.Scale(*eta, *mom, *refBatch, updateSize)
		fmt.Printf("Eq.9 scaling: (η=%.3g, m=%.4g) @N=%d → (η=%.3g, m=%.6g) @N=%d\n",
			*eta, *mom, *refBatch, eta1, m1, updateSize)
		fmt.Printf("engine=%s\n", *engine)
		if *replicas > 0 {
			fmt.Printf("cluster: %d replicas, sync=%s (sample g → replica g mod %d)\n",
				*replicas, policy.Name(), *replicas)
		}
	}

	opts := []train.Option{
		train.WithSeed(*seed),
		train.WithRefHyper(train.RefHyper{Eta: *eta, Momentum: *mom, WeightDecay: 1e-4, RefBatch: *refBatch}),
		train.OnEpochEnd(func(e train.EpochEvent) {
			fmt.Printf("epoch %2d  train loss %.4f acc %.1f%%  val acc %.1f%%\n",
				e.Epoch, e.TrainLoss, e.TrainAcc*100, e.ValAcc*100)
		}),
	}
	if sgdm {
		opts = append(opts, train.WithSGDM())
	} else {
		opts = append(opts, train.WithEngine(*engine), train.WithMitigations(mit))
	}
	if *workers > 0 {
		opts = append(opts, train.WithWorkers(*workers))
	}
	if *kernelWorkers > 0 {
		opts = append(opts, train.WithKernelWorkers(*kernelWorkers))
	}
	if *replicas > 0 {
		opts = append(opts, train.WithReplicas(*replicas, *syncName))
	}
	if *ckpt != "" && *epochs > 0 {
		opts = append(opts,
			train.WithCheckpointEvery(*epochs, *ckpt),
			train.OnCheckpoint(func(e train.CheckpointEvent) {
				fmt.Printf("saved checkpoint to %s\n", e.Path)
			}))
	}
	if *obsAddr != "" {
		// Observability sidecar: bind first so a bad address fails loudly
		// before training starts, then serve /metrics and /events for the
		// run's lifetime. The bus outlives Fit so late scrapes still see the
		// final drain summary.
		bus := obs.NewBus()
		defer bus.Close()
		agg := obs.NewAggregator(bus)
		defer agg.Close()
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fail("-obs %s: %v", *obsAddr, err)
		}
		defer ln.Close()
		fmt.Printf("observability on http://%s (GET /metrics, GET /events)\n", ln.Addr())
		srv := &http.Server{Handler: obs.Handler(bus, agg), ReadHeaderTimeout: readHeaderTimeout}
		go func() { _ = srv.Serve(ln) }()
		opts = append(opts, train.WithObserver(bus))
	}

	tr := train.New(build, opts...)
	defer tr.Close()
	ctx := context.Background()
	if *resume != "" {
		if err := tr.Resume(ctx, *resume); err != nil {
			fmt.Fprintln(os.Stderr, "pbtrain:", err)
			os.Exit(1)
		}
		fmt.Printf("resumed from %s\n", *resume)
	}
	rep, err := tr.Fit(ctx, trainSet, testSet, *epochs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbtrain:", err)
		os.Exit(1)
	}
	if *ckpt != "" && *epochs == 0 {
		// No epochs → no periodic save fired; honor -checkpoint anyway
		// (e.g. re-saving a just-resumed snapshot).
		if err := tr.Checkpoint(*ckpt); err != nil {
			fmt.Fprintln(os.Stderr, "pbtrain:", err)
			os.Exit(1)
		}
		fmt.Printf("saved checkpoint to %s\n", *ckpt)
	}
	if !sgdm {
		fmt.Printf("pipeline utilization %.3f (fill&drain bound at N=1: %.3f)\n",
			rep.Utilization, schedviz.UtilizationBound(1, rep.Stages))
		fmt.Printf("observed max staleness per stage ≤ 2(S-1-s): %v\n",
			rep.ObservedDelays[:min(6, len(rep.ObservedDelays))])
		if rep.Replicas > 0 {
			fmt.Printf("cluster: %d replicas, %d weight syncs\n", rep.Replicas, rep.Syncs)
		}
	}
}

// keys lists available mitigation names.
func keys() string {
	out := make([]string, 0, len(mitigations))
	for k := range mitigations {
		out = append(out, k)
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

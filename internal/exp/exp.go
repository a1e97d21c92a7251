// Package exp contains one runner per table and figure of the paper's
// evaluation. Each runner builds its workload, trains/analyzes with the
// appropriate engines, and renders the same rows or series the paper
// reports. The root-level benchmarks and cmd/experiments both call into this
// package; DESIGN.md section 4 is the index.
package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/train"
)

// Scale selects the experiment size. The paper trained CIFAR-10/ImageNet for
// hundreds of epochs on GPU clusters; we preserve the pipeline depths and
// training dynamics at reduced width, resolution and sample counts so the
// sweeps complete on one CPU core (see DESIGN.md substitutions).
type Scale struct {
	Name      string
	ImageSize int
	Train     int
	Test      int
	Epochs    int
	Width     int // ResNet base width; VGG width divisor is derived
	Seeds     int
	// Quadratic analysis grid sizes.
	MomentumPoints int
	RatePoints     int
}

// Predefined scales.
var (
	// Bench is sized for `cmd/experiments -scale bench` and the package's
	// tests: every experiment finishes in roughly a second.
	Bench = Scale{Name: "bench", ImageSize: 12, Train: 160, Test: 80, Epochs: 1,
		Width: 4, Seeds: 1, MomentumPoints: 8, RatePoints: 90}
	// Default is the cmd/experiments default.
	Default = Scale{Name: "default", ImageSize: 12, Train: 600, Test: 200, Epochs: 8,
		Width: 4, Seeds: 1, MomentumPoints: 16, RatePoints: 200}
	// Full is closer to the paper's operating point (still CPU-feasible).
	Full = Scale{Name: "full", ImageSize: 12, Train: 1200, Test: 400, Epochs: 12,
		Width: 4, Seeds: 3, MomentumPoints: 24, RatePoints: 320}
)

// vggDiv maps a ResNet base width to the VGG width divisor that produces
// comparable mini networks (VGG's base width is 64 vs ResNet's 16).
func (s Scale) vggDiv() int { return 64 / s.Width }

// RefHyper are the reference hyperparameters in the style of He et al.
// (2016a), tuned once for the synthetic mini workloads at reference update
// size RefBatch and reused — unscaled beyond Eq. 9 — by every method, which
// is the paper's "no hyperparameter tuning" protocol. It is the façade's
// type: the experiment runners feed it straight into train.WithRefHyper.
type RefHyper = train.RefHyper

// DefaultRef is the reference setting used by all image experiments.
var DefaultRef = train.DefaultRef

// MethodSpec names a training method: either the SGDM reference (mini-batch,
// no pipeline) or PB with a mitigation preset. Engine selects the PB runtime
// ("seq"|"lockstep"|"async", see core.NewEngine); empty
// means the sequential reference engine. Replicas > 0 runs that many
// data-parallel pipeline replicas behind the cluster engine, coordinated by
// the Sync policy ("none" | "avg-every-<k>" | "sync-grad"; see
// internal/sync).
type MethodSpec struct {
	Name     string
	SGDM     bool
	Mit      core.Mitigation
	Engine   string
	Replicas int
	Sync     string
}

// Paper method lineups.
var (
	SGDMRef = MethodSpec{Name: "SGDM", SGDM: true}
	PB      = MethodSpec{Name: "PB", Mit: core.None}
	// Fig8Methods is the Fig. 8/9 lineup.
	Fig8Methods = []MethodSpec{
		SGDMRef,
		PB,
		{Name: "PB+LWPD", Mit: core.LWPvD},
		{Name: "PB+SCD", Mit: core.SCD},
		{Name: "PB+LWPvD+SCD", Mit: core.LWPvDSCD},
	}
	// Table1Methods is the Table 1/5 lineup.
	Table1Methods = []MethodSpec{
		SGDMRef,
		PB,
		{Name: "PB+LWPvD+SCD", Mit: core.LWPvDSCD},
	}
)

// NetBuilder constructs a fresh network for a seed.
type NetBuilder func(seed int64) *nn.Network

// NamedNet couples a network family entry with its display name.
type NamedNet struct {
	Name  string
	Build NetBuilder
	// PaperStages is the stage count reported by the paper's GProp for the
	// full-size network (0 when not applicable).
	PaperStages int
}

// CIFARFamilies returns the Table 1 network lineup at this scale. deep
// controls whether the expensive RN56/RN110 analogues are included.
func CIFARFamilies(s Scale, classes int, deep bool) []NamedNet {
	div := s.vggDiv()
	nets := []NamedNet{
		{Name: "VGG11", PaperStages: 29, Build: func(seed int64) *nn.Network {
			return models.VGG(models.MiniVGG(11, div, s.ImageSize, classes, seed))
		}},
		{Name: "VGG13", PaperStages: 33, Build: func(seed int64) *nn.Network {
			return models.VGG(models.MiniVGG(13, div, s.ImageSize, classes, seed))
		}},
		{Name: "VGG16", PaperStages: 39, Build: func(seed int64) *nn.Network {
			return models.VGG(models.MiniVGG(16, div, s.ImageSize, classes, seed))
		}},
		{Name: "RN20", PaperStages: 34, Build: func(seed int64) *nn.Network {
			return models.ResNet(models.MiniResNet(20, s.Width, s.ImageSize, classes, seed))
		}},
		{Name: "RN32", PaperStages: 52, Build: func(seed int64) *nn.Network {
			return models.ResNet(models.MiniResNet(32, s.Width, s.ImageSize, classes, seed))
		}},
		{Name: "RN44", PaperStages: 70, Build: func(seed int64) *nn.Network {
			return models.ResNet(models.MiniResNet(44, s.Width, s.ImageSize, classes, seed))
		}},
	}
	if deep {
		nets = append(nets,
			NamedNet{Name: "RN56", PaperStages: 88, Build: func(seed int64) *nn.Network {
				return models.ResNet(models.MiniResNet(56, s.Width, s.ImageSize, classes, seed))
			}},
			NamedNet{Name: "RN110", PaperStages: 169, Build: func(seed int64) *nn.Network {
				return models.ResNet(models.MiniResNet(110, s.Width, s.ImageSize, classes, seed))
			}})
	}
	return nets
}

// TrainResult is the outcome of one training run.
type TrainResult struct {
	FinalValAcc float64
	FinalLoss   float64
	Stages      int
	// Curve is the per-epoch validation accuracy.
	Curve []float64
}

// RunMethod trains a network with the given method and returns the result.
// It is a thin wrapper over the train.Trainer façade, which implements the
// paper's protocol: the SGDM reference uses (Eta, Momentum) at RefBatch; PB
// uses the Eq. 9 scaling to update size one. A He-style step decay fires at
// 50% and 75% of total updates.
func RunMethod(build NetBuilder, trainSet, testSet *data.Dataset, method MethodSpec,
	ref RefHyper, epochs int, aug data.Augmenter, seed int64) TrainResult {
	opts := []train.Option{
		train.WithEngine(method.Engine),
		train.WithMitigations(method.Mit),
		train.WithRefHyper(ref),
		train.WithSeed(seed),
		train.WithAugment(aug),
	}
	if method.SGDM {
		opts = append(opts, train.WithSGDM())
	}
	if method.Replicas > 0 {
		opts = append(opts, train.WithReplicas(method.Replicas, method.Sync))
	}
	tr := train.New(train.Builder(build), opts...)
	defer tr.Close()
	rep, err := tr.Fit(context.Background(), trainSet, testSet, epochs)
	if err != nil {
		panic(err)
	}
	return TrainResult{
		FinalValAcc: rep.ValAcc,
		FinalLoss:   rep.ValLoss,
		Stages:      rep.Stages,
		Curve:       rep.Curve,
	}
}

// RunSeeds runs a method for several seeds and returns the accuracies (%).
func RunSeeds(build NetBuilder, trainSet, testSet *data.Dataset, method MethodSpec,
	ref RefHyper, epochs, seeds int, aug data.Augmenter) []float64 {
	var accs []float64
	for s := 0; s < seeds; s++ {
		r := RunMethod(build, trainSet, testSet, method, ref, epochs, aug, int64(1000+s))
		accs = append(accs, r.FinalValAcc*100)
	}
	return accs
}

// familyTable renders a NETWORK × methods accuracy table with stage counts.
func familyTable(w io.Writer, title string, nets []NamedNet, methods []MethodSpec,
	s Scale, train, test *data.Dataset, aug data.Augmenter) {
	fmt.Fprintf(w, "%s (scale=%s, %d train / %d test, %d epochs, %d seed(s))\n",
		title, s.Name, train.Len(), test.Len(), s.Epochs, s.Seeds)
	header := []string{"NETWORK", "STAGES(ours)", "STAGES(paper)"}
	for _, m := range methods {
		header = append(header, m.Name)
	}
	tab := metrics.NewTable(header...)
	for _, nt := range nets {
		stages := nt.Build(1).NumStages()
		row := []any{nt.Name, stages, nt.PaperStages}
		for _, m := range methods {
			accs := RunSeeds(nt.Build, train, test, m, DefaultRef, s.Epochs, s.Seeds, aug)
			row = append(row, metrics.FormatMeanStd(accs))
		}
		tab.AddRow(row...)
	}
	fmt.Fprint(w, tab.String())
}

// newRNG returns a deterministic RNG for experiment seeds.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

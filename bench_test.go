// Package repro's root benchmarks regenerate every table and figure of the
// paper at bench scale, one benchmark per artifact (see DESIGN.md §4 for the
// index). Each benchmark prints its rows/series once, so
//
//	go test -bench=. -benchmem
//
// both times the harness and emits the reproduction artifacts. Larger
// versions: cmd/experiments -scale default|full.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/exp"
)

// printOnce emits a runner's output the first time each label is seen, so
// repeated benchmark iterations don't flood the log.
var printed sync.Map

func printOnce(label string, buf *bytes.Buffer) {
	if _, loaded := printed.LoadOrStore(label, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n───── %s ─────\n%s", label, buf.String())
	}
}

// run executes an experiment runner b.N times, printing its artifact once.
func run(b *testing.B, label string, fn func(io.Writer, exp.Scale)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		fn(&buf, exp.Bench)
		printOnce(label, &buf)
	}
}

func BenchmarkFig2_Utilization(b *testing.B) {
	run(b, "Fig. 2 / Eq. 1 — pipeline utilization", exp.Fig2Utilization)
}

func BenchmarkFig3_ImpulseResponse(b *testing.B) {
	run(b, "Fig. 3 — impulse responses", exp.Fig3ImpulseResponse)
}

func BenchmarkFig4_RootHeatmaps(b *testing.B) {
	run(b, "Fig. 4 — |r_max| heatmaps", exp.Fig4RootHeatmaps)
}

func BenchmarkFig5_HalflifeVsKappa(b *testing.B) {
	run(b, "Fig. 5 — half-life vs condition number", exp.Fig5HalflifeVsKappa)
}

func BenchmarkFig6_HalflifeVsDelay(b *testing.B) {
	run(b, "Fig. 6 — half-life vs delay", exp.Fig6HalflifeVsDelay)
}

func BenchmarkFig7_HorizonMomentum(b *testing.B) {
	run(b, "Fig. 7 — horizon × momentum", exp.Fig7HorizonMomentum)
}

func BenchmarkFig8_CIFARResNet20(b *testing.B) {
	run(b, "Fig. 8 — CIFAR ResNet20 methods", exp.Fig8CIFARResNet20)
}

func BenchmarkFig9_ImageNetResNet50(b *testing.B) {
	run(b, "Fig. 9 — deep-pipeline ImageNet analogue", exp.Fig9ImageNetResNet50)
}

func BenchmarkFig10_InconsistencyVsDelay(b *testing.B) {
	run(b, "Fig. 10 — inconsistency vs delay", exp.Fig10InconsistencyVsDelay)
}

func BenchmarkFig12_HorizonScaleQuadratic(b *testing.B) {
	run(b, "Fig. 12 — horizon scale (quadratic)", exp.Fig12HorizonScaleQuadratic)
}

func BenchmarkFig13_HorizonScaleNN(b *testing.B) {
	run(b, "Fig. 13 — horizon scale (network)", exp.Fig13HorizonScaleNN)
}

func BenchmarkFig14_MomentumSweep(b *testing.B) {
	run(b, "Fig. 14 — momentum sweep under delay", exp.Fig14MomentumSweep)
}

func BenchmarkFig16_EngineValidation(b *testing.B) {
	run(b, "Fig. 16 — engine validation", exp.Fig16EngineValidation)
}

func BenchmarkFig17_BatchScaling(b *testing.B) {
	run(b, "Fig. 17 — Eq. 9 batch scaling", exp.Fig17BatchScaling)
}

func BenchmarkTable1_CIFARFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		exp.Table1CIFARFamilies(&buf, exp.Bench, false)
		printOnce("Table 1/5 — network families", &buf)
	}
}

func BenchmarkTable2_WeightStashing(b *testing.B) {
	run(b, "Table 2 — weight stashing", exp.Table2WeightStashing)
}

func BenchmarkTable3_SpecTrain(b *testing.B) {
	run(b, "Table 3 — SpecTrain comparison", exp.Table3SpecTrain)
}

func BenchmarkTable4_Overcompensation(b *testing.B) {
	run(b, "Table 4 — overcompensation", exp.Table4Overcompensation)
}

func BenchmarkTable6_LWPForms(b *testing.B) {
	run(b, "Table 6 — LWPv vs LWPw", exp.Table6LWPForms)
}

func BenchmarkAblation_Warmup(b *testing.B) {
	run(b, "Ablation — LR warmup for PB", exp.AblationWarmup)
}

func BenchmarkAblation_GradShrink(b *testing.B) {
	run(b, "Ablation — Gradient Shrinking baseline", exp.AblationGradShrink)
}

func BenchmarkAblation_AdamDelay(b *testing.B) {
	run(b, "Ablation — Adam delay tolerance", exp.AblationAdamDelay)
}

func BenchmarkAblation_ASGD(b *testing.B) {
	run(b, "Ablation — ASGD random delays", exp.AblationASGD)
}

func BenchmarkAblation_NormDelay(b *testing.B) {
	run(b, "Ablation — normalization vs delay tolerance", exp.AblationNormDelay)
}

func BenchmarkAblation_Granularity(b *testing.B) {
	run(b, "Ablation — pipeline granularity", exp.AblationGranularity)
}

func BenchmarkAppendixA_Memory(b *testing.B) {
	run(b, "Appendix A — memory model", exp.AppendixAMemory)
}

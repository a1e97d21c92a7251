package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/models"
)

// BenchmarkPBStepMLP measures one pipeline step of an 11-stage MLP pipeline
// (forward + backward + update at every stage).
func BenchmarkPBStepMLP(b *testing.B) {
	train, _ := data.GaussianBlobs(16, 4, 64, 0, 2.2, 1.3, 1)
	net := models.DeepMLP(16, 16, 10, 4, 1)
	pb := NewPBTrainer(net, ScaledConfig(0.05, 0.9, 32, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := train.Sample(i % train.Len())
		pb.Push(x, y)
		pb.Step()
	}
}

// BenchmarkPBStepResNet measures one pipeline step of the 31-stage RN20
// mini pipeline — the Fig. 8 configuration.
func BenchmarkPBStepResNet(b *testing.B) {
	cfg := data.CIFAR10Like(8, 32, 0, 1)
	train, _ := data.GenerateImages(cfg)
	net := models.ResNet(models.MiniResNet(20, 4, 8, 10, 1))
	pb := NewPBTrainer(net, ScaledConfig(0.05, 0.9, 32, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := train.Sample(i % train.Len())
		pb.Push(x, y)
		pb.Step()
	}
}

// BenchmarkPBStepMitigated adds the combined mitigation (prediction swap +
// spike update) to quantify its overhead relative to plain PB.
func BenchmarkPBStepMitigated(b *testing.B) {
	train, _ := data.GaussianBlobs(16, 4, 64, 0, 2.2, 1.3, 1)
	net := models.DeepMLP(16, 16, 10, 4, 1)
	cfg := ScaledConfig(0.05, 0.9, 32, 1)
	cfg.Mitigation = LWPvDSCD
	pb := NewPBTrainer(net, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := train.Sample(i % train.Len())
		pb.Push(x, y)
		pb.Step()
	}
}

// BenchmarkSGDBatch measures the reference mini-batch step for comparison.
func BenchmarkSGDBatch(b *testing.B) {
	train, _ := data.GaussianBlobs(16, 4, 64, 0, 2.2, 1.3, 1)
	net := models.DeepMLP(16, 16, 10, 4, 1)
	sgd := NewSGDTrainer(net, Config{LR: 0.05, Momentum: 0.9}, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sgd.TrainEpoch(train, nil, nil, nil)
	}
}

package exp

import (
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

// tiny is an even smaller scale than Bench for unit-test speed.
var tiny = Scale{Name: "tiny", ImageSize: 8, Train: 60, Test: 40, Epochs: 1,
	Width: 4, Seeds: 1, MomentumPoints: 5, RatePoints: 60}

func TestFig2Utilization(t *testing.T) {
	var b strings.Builder
	Fig2Utilization(&b, tiny)
	out := b.String()
	for _, want := range []string{"STAGES", "169", "PIPELINED", "stage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Impulse(t *testing.T) {
	var b strings.Builder
	Fig3ImpulseResponse(&b, tiny)
	if !strings.Contains(b.String(), "preserved") {
		t.Fatalf("Fig3 output:\n%s", b.String())
	}
}

func TestFig4Heatmaps(t *testing.T) {
	var b strings.Builder
	Fig4RootHeatmaps(&b, tiny)
	out := b.String()
	for _, want := range []string{"GDM D=0", "SCD D=1", "Nesterov D=0", "LWPwD+SCD D=1", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig4 output missing %q", want)
		}
	}
}

func TestFig5Table(t *testing.T) {
	var b strings.Builder
	Fig5HalflifeVsKappa(&b, tiny)
	out := b.String()
	if !strings.Contains(out, "kappa") || !strings.Contains(out, "1e+06") {
		t.Fatalf("Fig5 output:\n%s", out)
	}
}

func TestFig6Table(t *testing.T) {
	var b strings.Builder
	Fig6HalflifeVsDelay(&b, tiny)
	if !strings.Contains(b.String(), "delay") {
		t.Fatal("Fig6 missing header")
	}
}

func TestFig7Table(t *testing.T) {
	var b strings.Builder
	Fig7HorizonMomentum(&b, tiny)
	if !strings.Contains(b.String(), "LWP T=20") {
		t.Fatal("Fig7 missing horizon column")
	}
}

func TestFig12Table(t *testing.T) {
	var b strings.Builder
	Fig12HorizonScaleQuadratic(&b, tiny)
	out := b.String()
	if !strings.Contains(out, "best α") {
		t.Fatalf("Fig12 output:\n%s", out)
	}
}

func TestFig10Sweep(t *testing.T) {
	var b strings.Builder
	Fig10InconsistencyVsDelay(&b, tiny)
	out := b.String()
	if !strings.Contains(out, "Consistent Delay") || !strings.Contains(out, "Forward Delay Only") {
		t.Fatalf("Fig10 output:\n%s", out)
	}
}

func TestFig13Sweep(t *testing.T) {
	var b strings.Builder
	Fig13HorizonScaleNN(&b, tiny)
	if !strings.Contains(b.String(), "best α") {
		t.Fatal("Fig13 missing best-alpha line")
	}
}

func TestFig14Sweep(t *testing.T) {
	var b strings.Builder
	Fig14MomentumSweep(&b, tiny)
	out := b.String()
	if !strings.Contains(out, "14a") || !strings.Contains(out, "14b") {
		t.Fatalf("Fig14 output:\n%s", out)
	}
}

func TestFig8Runs(t *testing.T) {
	var b strings.Builder
	Fig8CIFARResNet20(&b, tiny)
	out := b.String()
	for _, m := range Fig8Methods {
		if !strings.Contains(out, m.Name) {
			t.Fatalf("Fig8 missing method %s:\n%s", m.Name, out)
		}
	}
}

func TestFig16Validation(t *testing.T) {
	var b strings.Builder
	Fig16EngineValidation(&b, tiny)
	out := b.String()
	if !strings.Contains(out, "identical trajectories") {
		t.Fatalf("Fig16 output:\n%s", out)
	}
	// The deviation line must report a tiny number (scientific notation
	// with a large negative exponent or exactly 0).
	if !strings.Contains(out, "e-") && !strings.Contains(out, "0.00e+00") {
		t.Fatalf("Fig16 deviation not tiny:\n%s", out)
	}
}

func TestFig17Scaling(t *testing.T) {
	var b strings.Builder
	Fig17BatchScaling(&b, tiny)
	if !strings.Contains(b.String(), "batch 1 (Eq. 9)") {
		t.Fatal("Fig17 missing scaled column")
	}
}

func TestTable2Runs(t *testing.T) {
	var b strings.Builder
	Table2WeightStashing(&b, tiny)
	out := b.String()
	if !strings.Contains(out, "PB+WS") || !strings.Contains(out, "VGG11") {
		t.Fatalf("Table2 output:\n%s", out)
	}
}

func TestCIFARFamiliesLineup(t *testing.T) {
	nets := CIFARFamilies(tiny, 10, false)
	if len(nets) != 6 {
		t.Fatalf("family count %d", len(nets))
	}
	deep := CIFARFamilies(tiny, 10, true)
	if len(deep) != 8 || deep[7].Name != "RN110" {
		t.Fatalf("deep lineup wrong: %d", len(deep))
	}
	// Stage counts must increase within each family.
	s1 := nets[0].Build(1).NumStages()
	s3 := nets[2].Build(1).NumStages()
	if s3 <= s1 {
		t.Fatal("VGG stage counts not increasing")
	}
}

func TestRunMethodSGDMAndPB(t *testing.T) {
	cfg := data.CIFAR10Like(8, 40, 20, 7)
	cfg.Classes = 4
	train, test := data.GenerateImages(cfg)
	build := CIFARFamilies(tiny, 4, false)[3].Build // RN20 mini
	for _, m := range []MethodSpec{SGDMRef, PB} {
		r := RunMethod(build, train, test, m, DefaultRef, 1, nil, 5)
		if r.FinalValAcc < 0 || r.FinalValAcc > 1 || len(r.Curve) != 1 {
			t.Fatalf("%s: result %+v", m.Name, r)
		}
		if r.Stages == 0 {
			t.Fatal("stage count missing")
		}
	}
}

// TestRunMethodEngineSelection checks that the deterministic engines are
// interchangeable inside RunMethod (identical results for the same seed)
// and that the free-running engine produces a sane training run.
func TestRunMethodEngineSelection(t *testing.T) {
	cfg := data.CIFAR10Like(8, 40, 20, 7)
	cfg.Classes = 4
	train, test := data.GenerateImages(cfg)
	build := CIFARFamilies(tiny, 4, false)[3].Build // RN20 mini

	seq := RunMethod(build, train, test, MethodSpec{Name: "PB"}, DefaultRef, 1, nil, 5)
	det := RunMethod(build, train, test, MethodSpec{Name: "PB", Engine: "lockstep"}, DefaultRef, 1, nil, 5)
	if seq.FinalValAcc != det.FinalValAcc || seq.FinalLoss != det.FinalLoss {
		t.Fatalf("lockstep engine deviates: seq (%.6f, %.6f) vs lockstep (%.6f, %.6f)",
			seq.FinalLoss, seq.FinalValAcc, det.FinalLoss, det.FinalValAcc)
	}
	free := RunMethod(build, train, test, MethodSpec{Name: "PB", Engine: "async"}, DefaultRef, 1, nil, 5)
	if free.FinalValAcc < 0 || free.FinalValAcc > 1 || len(free.Curve) != 1 {
		t.Fatalf("async engine: result %+v", free)
	}
}

func TestRunMethodReplicated(t *testing.T) {
	train, test, _ := cifarTask(tiny, 42)
	build := func(seed int64) *nn.Network {
		return models.TinyCNN(3, tiny.ImageSize, 10, seed)
	}
	spec := MethodSpec{Name: "PB×2", Engine: "seq", Replicas: 2, Sync: "avg-every-8"}
	r := RunMethod(build, train, test, spec, DefaultRef, 1, nil, 5)
	if r.FinalValAcc < 0 || r.FinalValAcc > 1 || len(r.Curve) != 1 {
		t.Fatalf("replicated RunMethod result %+v", r)
	}
}

func TestAblationsRun(t *testing.T) {
	var b strings.Builder
	AblationWarmup(&b, tiny)
	if !strings.Contains(b.String(), "Warmup") {
		t.Fatal("warmup ablation output")
	}
	b.Reset()
	AblationGradShrink(&b, tiny)
	if !strings.Contains(b.String(), "GradShrink") {
		t.Fatal("gradshrink ablation output")
	}
	b.Reset()
	AblationAdamDelay(&b, tiny)
	if !strings.Contains(b.String(), "Adam") {
		t.Fatal("adam ablation output")
	}
	b.Reset()
	AblationASGD(&b, tiny)
	if !strings.Contains(b.String(), "random U[0,2D]") {
		t.Fatal("asgd ablation output")
	}
}

func TestAblationNormDelayAndGranularity(t *testing.T) {
	var b strings.Builder
	AblationNormDelay(&b, tiny)
	out := b.String()
	for _, want := range []string{"gn", "bn", "frn", "wsgn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("norm ablation missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	AblationGranularity(&b, tiny)
	out = b.String()
	if !strings.Contains(out, "max delay") || !strings.Contains(out, "balance") {
		t.Fatalf("granularity ablation output:\n%s", out)
	}
}

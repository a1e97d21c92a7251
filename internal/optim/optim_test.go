package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func newParam(vals ...float64) *nn.Param {
	return nn.NewParam("p", tensor.FromSlice(vals, len(vals)))
}

func TestScaleRule(t *testing.T) {
	// Reference: He et al. CIFAR setup, eta=0.1, m=0.9, N=128 → N=1.
	eta, m := Scale(0.1, 0.9, 128, 1)
	wantM := math.Pow(0.9, 1.0/128.0)
	if math.Abs(m-wantM) > 1e-12 {
		t.Fatalf("m = %v, want %v", m, wantM)
	}
	wantEta := (1 - wantM) * 1 / ((1 - 0.9) * 128) * 0.1
	if math.Abs(eta-wantEta) > 1e-12 {
		t.Fatalf("eta = %v, want %v", eta, wantEta)
	}
	// Identity when n == nRef.
	eta2, m2 := Scale(0.1, 0.9, 128, 128)
	if math.Abs(eta2-0.1) > 1e-12 || math.Abs(m2-0.9) > 1e-12 {
		t.Fatalf("Scale is not identity at n=nRef: %v %v", eta2, m2)
	}
}

// Property (Eq. 9 invariant): the momentum half-life measured in samples is
// preserved: m^(1/n) is the same for all n; and eta/(1-m)/n is constant.
func TestScaleInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mRef := 0.5 + rng.Float64()*0.45
		etaRef := 0.01 + rng.Float64()
		nRef := 1 + rng.Intn(256)
		n := 1 + rng.Intn(256)
		eta, m := Scale(etaRef, mRef, nRef, n)
		perSampleRef := math.Pow(mRef, 1/float64(nRef))
		perSample := math.Pow(m, 1/float64(n))
		if math.Abs(perSample-perSampleRef) > 1e-9 {
			return false
		}
		// Expected total contribution of one gradient sample to the weights:
		// eta/(1-m) per update, with n samples per update → eta/((1-m)·n).
		cRef := etaRef / ((1 - mRef) * float64(nRef))
		c := eta / ((1 - m) * float64(n))
		return math.Abs(c-cRef) < 1e-9*cRef
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpikeCoefficients(t *testing.T) {
	a, b := SpikeCoefficients(0.9, 0)
	if a != 1 || b != 0 {
		t.Fatalf("D=0 must be plain SGDM, got a=%v b=%v", a, b)
	}
	a, b = SpikeCoefficients(0.9, 1)
	if math.Abs(a-0.9) > 1e-12 || math.Abs(b-1) > 1e-12 {
		t.Fatalf("D=1: a=%v b=%v, want (0.9, 1) — Nesterov equivalence", a, b)
	}
	a, b = SpikeCoefficients(0.5, 3)
	if math.Abs(a-0.125) > 1e-12 || math.Abs(b-1.75) > 1e-12 {
		t.Fatalf("D=3 m=0.5: a=%v b=%v", a, b)
	}
	// m=1 edge: b = d.
	_, b = SpikeCoefficients(1, 7)
	if b != 7 {
		t.Fatalf("m=1: b=%v, want 7", b)
	}
}

// Property: a + b·(1-m) == 1 for the default coefficients — the total
// long-run contribution of each gradient is unchanged (Section 3.2).
func TestSpikeTotalContributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Float64() * 0.999
		d := float64(rng.Intn(30))
		a, b := SpikeCoefficients(m, d)
		// Sum over time of the impulse response of (a·v + b·g) equals
		// a/(1-m) + b; no-delay SGDM has 1/(1-m). Equal iff a + b(1-m) = 1.
		return math.Abs(a+b*(1-m)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMomentumPlainStep(t *testing.T) {
	p := newParam(1, 2)
	p.Grad().Data[0], p.Grad().Data[1] = 0.5, -1
	o := NewMomentum(0.1, 0.9)
	o.Step([]*nn.Param{p})
	// v = g, w -= lr*v
	if math.Abs(p.W.Data[0]-(1-0.05)) > 1e-12 || math.Abs(p.W.Data[1]-2.1) > 1e-12 {
		t.Fatalf("step1: %v", p.W.Data)
	}
	if p.Grad().Data[0] != 0 {
		t.Fatal("Step must zero gradients")
	}
	p.Grad().Data[0] = 0.5
	o.Step([]*nn.Param{p})
	// v = 0.9*0.5+0.5 = 0.95
	if math.Abs(p.W.Data[0]-(0.95-0.1*0.95)) > 1e-12 {
		t.Fatalf("step2: %v", p.W.Data[0])
	}
}

func TestSpikedStepMatchesFormula(t *testing.T) {
	p := newParam(0)
	o := NewSpiked(0.1, 0.9, 0.81, 1.9) // SCD for D=2
	vExp := 0.0
	w := 0.0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		g := rng.NormFloat64()
		p.Grad().Data[0] = g
		o.Step([]*nn.Param{p})
		vExp = 0.9*vExp + g
		w -= 0.1 * (0.81*vExp + 1.9*g)
		if math.Abs(p.W.Data[0]-w) > 1e-12 {
			t.Fatalf("step %d: got %v want %v", i, p.W.Data[0], w)
		}
	}
}

// Property: with A=1,B=0 and zero delay, spike compensation IS SGDM.
func TestGSCReducesToSGDMProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Float64() * 0.99
		lr := 0.001 + rng.Float64()*0.1
		a, b := SpikeCoefficients(m, 0)
		p1, p2 := newParam(1, -1, 2), newParam(1, -1, 2)
		o1 := NewMomentum(lr, m)
		o2 := NewSpiked(lr, m, a, b)
		for i := 0; i < 5; i++ {
			g := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			copy(p1.Grad().Data, g)
			copy(p2.Grad().Data, g)
			o1.Step([]*nn.Param{p1})
			o2.Step([]*nn.Param{p2})
		}
		return p1.W.AllClose(p2.W, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWeightDecay(t *testing.T) {
	p := newParam(10)
	o := NewMomentum(0.1, 0)
	o.WeightDecay = 0.01
	o.Step([]*nn.Param{p})
	// g_eff = 0 + 0.01*10 = 0.1; w = 10 - 0.1*0.1 = 9.99
	if math.Abs(p.W.Data[0]-9.99) > 1e-12 {
		t.Fatalf("weight decay: %v", p.W.Data[0])
	}
}

func TestPredictVelocityForm(t *testing.T) {
	w := []float64{1, 2}
	v := []float64{0.5, -0.5}
	got := PredictVelocityForm(w, v, 0.1, 3)
	want := []float64{1 - 0.15, 2 + 0.15}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("LWPv: %v, want %v", got, want)
		}
	}
	// T=0 must be identity.
	id := PredictVelocityForm(w, v, 0.1, 0)
	if id[0] != 1 || id[1] != 2 {
		t.Fatal("T=0 prediction must be identity")
	}
}

func TestPredictWeightForm(t *testing.T) {
	w := []float64{2, 0}
	prev := []float64{1, 1}
	got := PredictWeightForm(w, prev, 2)
	want := []float64{4, -2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LWPw: %v, want %v", got, want)
		}
	}
}

// Property: for plain SGDM the two LWP forms coincide (Section 3.3): the
// weight difference equals −η·v exactly.
func TestLWPFormsCoincideForSGDMProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Float64() * 0.99
		lr := 0.001 + rng.Float64()*0.1
		tHor := float64(rng.Intn(10))
		p := newParam(1, -2, 0.5)
		o := NewMomentum(lr, m)
		o.TrackPrev = true
		for i := 0; i < 6; i++ {
			for j := range p.Grad().Data {
				p.Grad().Data[j] = rng.NormFloat64()
			}
			o.Step([]*nn.Param{p})
		}
		pv := o.Predict(p, LWPVelocity, tHor)
		pw := o.Predict(p, LWPWeight, tHor)
		for i := range pv {
			if math.Abs(pv[i]-pw[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// With spike compensation the two forms must differ (Eq. 26).
func TestLWPFormsDifferUnderSC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newParam(1, -2, 0.5)
	a, b := SpikeCoefficients(0.9, 4)
	o := NewSpiked(0.05, 0.9, a, b)
	o.TrackPrev = true
	for i := 0; i < 5; i++ {
		for j := range p.Grad().Data {
			p.Grad().Data[j] = rng.NormFloat64()
		}
		o.Step([]*nn.Param{p})
	}
	pv := o.Predict(p, LWPVelocity, 4)
	pw := o.Predict(p, LWPWeight, 4)
	same := true
	for i := range pv {
		if math.Abs(pv[i]-pw[i]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Fatal("LWPv and LWPw should differ when spike compensation is active")
	}
}

// StepPredict must equal Step followed by PredictInto bit for bit, for both
// forms, with spike coefficients and weight decay on, over several steps (so
// the velocity and previous-weight recurrences are exercised) — and leave ŵ
// in G. Once warm, neither it nor PredictInto allocates.
func TestStepPredictMatchesStepThenPredict(t *testing.T) {
	for _, form := range []LWPForm{LWPVelocity, LWPWeight} {
		rng := rand.New(rand.NewSource(11))
		a, b := SpikeCoefficients(0.9, 3)
		fused, ref := newParam(1, -2, 0.5, 3), newParam(1, -2, 0.5, 3)
		of, or := NewSpiked(0.05, 0.9, a, b), NewSpiked(0.05, 0.9, a, b)
		for _, o := range []*Momentum{of, or} {
			o.WeightDecay = 1e-3
			o.TrackPrev = true
		}
		want := make([]float64, 4)
		for s := 0; s < 5; s++ {
			for j := range ref.Grad().Data {
				ref.Grad().Data[j] = rng.NormFloat64()
			}
			fused.Grad().CopyFrom(ref.Grad())
			of.StepPredict([]*nn.Param{fused}, form, 2.5)
			or.Step([]*nn.Param{ref})
			or.PredictInto(want, ref, form, 2.5)
			for i := range want {
				if fused.W.Data[i] != ref.W.Data[i] || fused.Grad().Data[i] != want[i] ||
					of.Vel(fused)[i] != or.Vel(ref)[i] || of.Prev(fused)[i] != or.Prev(ref)[i] {
					t.Fatalf("%s step %d element %d: fused (w %v, ŵ %v) vs reference (w %v, ŵ %v)",
						form, s, i, fused.W.Data[i], fused.Grad().Data[i], ref.W.Data[i], want[i])
				}
			}
			fused.Grad().Zero()
		}
		if n := testing.AllocsPerRun(10, func() {
			of.StepPredict([]*nn.Param{fused}, form, 2.5)
			of.PredictInto(want, fused, form, 2.5)
		}); n != 0 {
			t.Errorf("%s: %v allocs per StepPredict+PredictInto, want 0", form, n)
		}
	}
}

func TestEquivalenceCoefficients(t *testing.T) {
	m := 0.9
	for _, d := range []float64{1, 2, 5} {
		tHor := EquivalentLWPHorizon(m, d)
		a, b := EquivalentGSCForLWP(m, tHor)
		// Check a+b = 1+T and m·b = T.
		if math.Abs(a+b-(1+tHor)) > 1e-12 || math.Abs(m*b-tHor) > 1e-12 {
			t.Fatalf("equivalence identities violated for d=%v", d)
		}
		// For the default SCD, T_equiv reproduces the SCD coefficients.
		aSCD, bSCD := SpikeCoefficients(m, d)
		if math.Abs(a-aSCD) > 1e-9 || math.Abs(b-bSCD) > 1e-9 {
			t.Fatalf("EquivalentLWPHorizon does not invert SpikeCoefficients: (%v,%v) vs (%v,%v)", a, b, aSCD, bSCD)
		}
	}
}

func TestShrinkGradients(t *testing.T) {
	p := newParam(0, 0)
	p.Grad().Data[0], p.Grad().Data[1] = 2, -4
	ShrinkGradients([]*nn.Param{p}, 0.5, 2)
	if p.Grad().Data[0] != 0.5 || p.Grad().Data[1] != -1 {
		t.Fatalf("shrink: %v", p.Grad().Data)
	}
}

func TestAdamStep(t *testing.T) {
	p := newParam(1)
	o := NewAdam(0.1)
	p.Grad().Data[0] = 1
	o.Step([]*nn.Param{p})
	// First step of Adam moves by ~lr regardless of gradient scale.
	if math.Abs(p.W.Data[0]-(1-0.1/(1+1e-8))) > 1e-9 {
		t.Fatalf("adam step1: %v", p.W.Data[0])
	}
	// Gradient zeroed.
	if p.Grad().Data[0] != 0 {
		t.Fatal("Adam must zero gradients")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := newParam(5)
	o := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		p.Grad().Data[0] = p.W.Data[0] // grad of 0.5 w^2
		o.Step([]*nn.Param{p})
	}
	if math.Abs(p.W.Data[0]) > 1e-2 {
		t.Fatalf("Adam failed to converge: %v", p.W.Data[0])
	}
}

func TestMomentumReset(t *testing.T) {
	p := newParam(1)
	o := NewMomentum(0.1, 0.9)
	p.Grad().Data[0] = 1
	o.Step([]*nn.Param{p})
	o.Reset()
	if o.Vel(p)[0] != 0 {
		t.Fatal("Reset did not clear velocity")
	}
}

func TestNesterovCoefficients(t *testing.T) {
	a, b := NesterovCoefficients(0.75)
	if a != 0.75 || b != 1 {
		t.Fatalf("Nesterov coefficients (%v,%v)", a, b)
	}
	// Must equal SCD at D=1 for any m.
	a2, b2 := SpikeCoefficients(0.75, 1)
	if a != a2 || b != b2 {
		t.Fatal("Nesterov must coincide with SCD at D=1")
	}
}

// Reset clears all optimizer state (velocities and previous weights).
func (o *Momentum) Reset() {
	o.vel = make(map[*nn.Param][]float64)
	o.prevMap = make(map[*nn.Param][]float64)
}

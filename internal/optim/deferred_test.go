package optim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The dense layer's batch-one weight gradient is kept pending as dy ⊗ x and
// formed inside the optimizer (nn.Param.PendingOuter). This test holds every
// optimizer-side reader of G to the bits of the GEMM path it replaces, on
// inputs chosen to break a careless formula: signed zeros, NaN, infinities,
// subnormals, and products that underflow to a negative zero.

// specialVals returns n values for a dy or x vector at dt: the finite edge
// cases (rotated by off) at even positions, random values between them, and
// with nonFinite a NaN at 1 and an infinity at 3.
func specialVals(dt tensor.DType, n, off int, nonFinite bool, rng *rand.Rand) []float64 {
	edge := []float64{math.Copysign(0, -1), 0, 5e-324, -2.5e-320, 1e-200, -1e-200, 1.5, -3}
	if dt == tensor.F32 {
		edge = []float64{math.Copysign(0, -1), 0, 1e-45, -3e-40, 1e-25, -1e-25, 1.5, -3}
	}
	out := make([]float64, n)
	for i := range out {
		if i%2 == 0 && i < 2*len(edge) {
			out[i] = edge[(i/2+off)%len(edge)]
		} else {
			out[i] = rng.NormFloat64()
		}
	}
	if nonFinite {
		out[1], out[3] = math.NaN(), math.Inf(1-2*(off%2))
	}
	return out
}

// vecAt wraps vals as a [1, len(vals)] tensor at dt.
func vecAt(dt tensor.DType, vals []float64) *tensor.Tensor {
	t := tensor.NewDT(dt, 1, len(vals))
	t.SetFloat64s(0, vals)
	return t
}

// denseTwins returns two identical dense layers at dt. Weights carry a few
// signed zeros among random values.
func denseTwins(dt tensor.DType, in, out int, seed int64) (deferred, gemm *nn.Dense) {
	mk := func() *nn.Dense {
		d := nn.NewDense("fc", in, out, true, rand.New(rand.NewSource(seed)))
		d.Weight.W.Data[0] = math.Copysign(0, -1)
		d.Weight.W.Data[in+1] = 0
		for _, p := range d.Params() {
			p.ConvertTo(dt)
		}
		return d
	}
	return mk(), mk()
}

// backwardTwins runs one batch-one backward of (dy, x) into both layers from
// a zero G: the first defers its weight gradient, the second has G
// materialised first and so accumulates through MatMulTransAAccInto.
func backwardTwins(t *testing.T, deferred, gemm *nn.Dense, dy, x *tensor.Tensor) {
	t.Helper()
	for _, d := range []*nn.Dense{deferred, gemm} {
		for _, p := range d.Params() {
			p.ZeroGrad()
		}
	}
	gemm.Weight.Grad()
	deferred.Backward(dy.Clone(), x.Clone(), nil, nil)
	gemm.Backward(dy.Clone(), x.Clone(), nil, nil)
	if _, _, ok := deferred.Weight.PendingOuter(); !ok {
		t.Fatal("batch-one backward onto a zero G did not defer the weight gradient")
	}
	if _, _, ok := gemm.Weight.PendingOuter(); ok {
		t.Fatal("backward onto a materialised G deferred instead of accumulating")
	}
}

// sameBits reports the first index where a and b differ in bits.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// seedVel gives a fresh velocity a pattern with negative zeros, so a sign
// change of a zero gradient shows in m·v + g.
func seedVel(v []float64) {
	for i := range v {
		if i%3 == 0 {
			v[i] = math.Copysign(0, -1)
		} else {
			v[i] = 0.01 * float64(i%7-3)
		}
	}
}

// TestDeferredGradMatchesMaterialised runs every optimizer-side reader of G
// on a deferred rank-1 gradient and on the GEMM-materialised one, and wants
// the same bits in the weights, G and the optimizer state after each of
// three steps.
func TestDeferredGradMatchesMaterialised(t *testing.T) {
	// A reader applies itself to one twin's params and returns the state to
	// compare besides W and G (velocities, tracked weights, moments, or G
	// before the step consumed it).
	type reader func(ps []*nn.Param) [][]float64
	momentum := func(wd float64, track bool, apply func(o *Momentum, ps []*nn.Param) [][]float64) func() reader {
		return func() reader {
			o := NewSpiked(0.05, 0.9, 0.7, 1.3)
			o.WeightDecay, o.TrackPrev = wd, track
			return func(ps []*nn.Param) [][]float64 {
				for _, p := range ps {
					if o.VelIfTracked(p) == nil {
						seedVel(o.Vel(p))
					}
				}
				st := apply(o, ps)
				for _, p := range ps {
					st = append(st, o.VelIfTracked(p), o.PrevIfTracked(p))
				}
				return st
			}
		}
	}
	step := func(o *Momentum, ps []*nn.Param) [][]float64 { o.Step(ps); return nil }
	predict := func(form LWPForm) func(o *Momentum, ps []*nn.Param) [][]float64 {
		return func(o *Momentum, ps []*nn.Param) [][]float64 { o.StepPredict(ps, form, 2.5); return nil }
	}
	shrink := func(o *Momentum, ps []*nn.Param) [][]float64 {
		ShrinkGradients(ps, 0.5, 3)
		var st [][]float64
		for _, p := range ps {
			st = append(st, p.Grad().Float64s(nil))
		}
		o.Step(ps)
		return st
	}
	adam := func() reader {
		o := NewAdam(0.01)
		return func(ps []*nn.Param) [][]float64 {
			o.Step(ps)
			var st [][]float64
			for _, p := range ps {
				st = append(st, o.m[p], o.v[p])
			}
			return st
		}
	}
	type tc struct {
		name string
		dt   tensor.DType
		make func() reader
	}
	var cases []tc
	for _, wd := range []float64{0, 1e-2} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			cases = append(cases, tc{fmt.Sprintf("Step/%s/wd=%g", dt, wd), dt, momentum(wd, false, step)})
		}
		cases = append(cases,
			tc{fmt.Sprintf("StepPredict/LWPv/wd=%g", wd), tensor.F64, momentum(wd, false, predict(LWPVelocity))},
			tc{fmt.Sprintf("StepPredict/LWPv/TrackPrev/wd=%g", wd), tensor.F64, momentum(wd, true, predict(LWPVelocity))},
			tc{fmt.Sprintf("StepPredict/LWPw/wd=%g", wd), tensor.F64, momentum(wd, true, predict(LWPWeight))},
			tc{fmt.Sprintf("ShrinkGradients/wd=%g", wd), tensor.F64, momentum(wd, false, shrink)},
		)
	}
	cases = append(cases, tc{"Adam", tensor.F64, adam})

	const in, out = 23, 9
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dense, gemm := denseTwins(c.dt, in, out, 7)
			runD, runG := c.make(), c.make()
			rng := rand.New(rand.NewSource(3))
			for it := 0; it < 3; it++ {
				// NaN and infinities poison whole rows and columns of W,
				// so only the first step gets them.
				dy := vecAt(c.dt, specialVals(c.dt, out, it, it == 0, rng))
				x := vecAt(c.dt, specialVals(c.dt, in, 3*it+1, it == 0, rng))
				backwardTwins(t, dense, gemm, dy, x)
				stD, stG := runD(dense.Params()), runG(gemm.Params())
				for j, p := range dense.Params() {
					q := gemm.Params()[j]
					stD = append(stD, p.W.Float64s(nil), p.Grad().Float64s(nil))
					stG = append(stG, q.W.Float64s(nil), q.Grad().Float64s(nil))
				}
				for k := range stD {
					if i, ok := sameBits(stD[k], stG[k]); !ok {
						if i < 0 {
							t.Fatalf("step %d, state %d: lengths %d vs %d", it, k, len(stD[k]), len(stG[k]))
						}
						t.Fatalf("step %d, state %d, element %d: deferred %v, materialised %v",
							it, k, i, stD[k][i], stG[k][i])
					}
				}
			}
		})
	}
}

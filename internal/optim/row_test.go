package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// rowVal draws one value for the row fuzzer: signed zeros, subnormals,
// infinities, NaNs with random payloads (quiet and signalling), values
// whose products overflow or underflow, and ordinary normals.
func rowVal(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(1+rng.Uint64()&(1<<52-2))
	case 2:
		return math.Inf(int(sign))
	case 3:
		return math.Float64frombits(0x7ff0_0000_0000_0001 | rng.Uint64()&0x800f_ffff_ffff_ffff)
	case 4:
		return sign * 1e300 * (1 + rng.Float64())
	case 5:
		return sign * 1e-300 * (1 + rng.Float64())
	default:
		return rng.NormFloat64()
	}
}

// FuzzStepRowMatchesScalar holds stepRow — on amd64 the SSE2 kernel plus
// the scalar tail — to the scalar loop stepRowGo bit for bit in every mode:
// gradient from the outer factor or stored, wd = 0 or not, with and without
// the prediction. As in stepRows, a stored gradient's prediction overwrites
// the gradient row in place. A NaN must meet a NaN, but its payload is not
// compared: with two NaN operands the result's payload follows the
// compiler's choice of operand order, which differs even between the
// scalar loop's own -race and plain builds.
func FuzzStepRowMatchesScalar(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 3, 7, 16, 33} {
		for mode := range uint8(8) {
			f.Add(int64(n)*8+int64(mode), n, mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8) {
		n %= 1024
		rng := rand.New(rand.NewSource(seed))
		draw := func() []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = rowVal(rng)
			}
			return s
		}
		k := rowArgs{m: rowVal(rng), lr: rowVal(rng), a: rowVal(rng), b: rowVal(rng),
			lrt: rowVal(rng), ar: rowVal(rng), mode: int(mode) & (rowOuter | rowPredict)}
		if mode&rowDecay != 0 {
			for k.wd == 0 {
				k.wd = rowVal(rng)
			}
			k.mode |= rowDecay
		}
		w, v, src, dst := draw(), draw(), draw(), draw()
		run := func(row func(*rowArgs, []float64, []float64, []float64, []float64)) [][]float64 {
			w, v, src, dst := append([]float64(nil), w...), append([]float64(nil), v...),
				append([]float64(nil), src...), append([]float64(nil), dst...)
			if k.mode&(rowOuter|rowPredict) == rowPredict {
				dst = src
			}
			kk := k
			row(&kk, w, v, src, dst)
			return [][]float64{w, v, src, dst}
		}
		got, want := run(stepRow), run(stepRowGo)
		for j, name := range []string{"w", "v", "src", "dst"} {
			for i := range got[j] {
				g, w := got[j][i], want[j][i]
				if math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w) {
					continue
				}
				t.Fatalf("n=%d mode=%03b %s[%d]: kernel %#x (%v), scalar %#x (%v)", n, k.mode, name, i,
					math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	})
}

// TestStepPredictOuterAllocatesNothing: the fused step of a pending a⊗b
// gradient runs without allocating, so the row kernel's coefficient block
// stays on the stack.
func TestStepPredictOuterAllocatesNothing(t *testing.T) {
	const in, out = 33, 8
	d := nn.NewDense("fc", in, out, false, rand.New(rand.NewSource(1)))
	o := NewSpiked(0.05, 0.9, 0.7, 1.3)
	o.WeightDecay = 1e-4
	ar := tensor.NewArena()
	params := d.Params()
	run := func() {
		dy, x := ar.Get(1, out), ar.Get(1, in)
		dy.Fill(0.5)
		x.Fill(-0.25)
		for _, p := range params {
			p.ZeroGrad()
		}
		ar.Put(d.Backward(dy, x, ar, nil))
		if _, _, ok := d.Weight.PendingOuter(); !ok {
			t.Fatal("batch-one backward did not leave the weight gradient pending")
		}
		o.StepPredict(params, LWPVelocity, 2)
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("backward + StepPredict allocated %v times per run, want 0", allocs)
	}
}

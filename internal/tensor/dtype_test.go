package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// relClose reports |a−b| ≤ tol·max(1, |a|, |b|) — the relative-error
// criterion of the f32-vs-f64 oracle comparisons (DESIGN.md §15).
func relClose(a, b, tol float64) bool {
	scale := 1.0
	if s := math.Abs(a); s > scale {
		scale = s
	}
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) <= tol*scale
}

// TestAlignedF32Contract proves every New32 and arena-served float32 backing
// slice starts on a 64-byte boundary, across awkward sizes.
func TestAlignedF32Contract(t *testing.T) {
	ar := NewArena()
	for _, n := range []int{1, 2, 3, 7, 8, 15, 16, 17, 63, 64, 65, 1000, 4096} {
		if got := f32PtrMod64(New32(n).data32); got != 0 {
			t.Fatalf("New32(%d) backing misaligned: addr %% 64 = %d", n, got)
		}
		g := ar.GetDT(F32, n)
		if got := f32PtrMod64(g.data32); got != 0 {
			t.Fatalf("arena GetDT(F32, %d) backing misaligned: addr %% 64 = %d", n, got)
		}
		ar.Put(g)
	}
}

// TestArenaDTypeKeying proves the free lists are dtype-keyed: a pooled f32
// buffer is never handed to an f64 Get of the same element count (and vice
// versa), while same-dtype reuse still allocates nothing.
func TestArenaDTypeKeying(t *testing.T) {
	ar := NewArena()
	f32t := ar.GetDT(F32, 4, 8)
	f64t := ar.Get(4, 8)
	ar.Put(f32t, f64t)

	g64 := ar.Get(32)
	if g64.DType() != F64 || g64 != f64t {
		t.Fatalf("f64 Get after Put: dtype=%v recycled=%v, want the pooled f64 buffer", g64.DType(), g64 == f64t)
	}
	g32 := ar.GetDT(F32, 32)
	if g32.DType() != F32 || g32 != f32t {
		t.Fatalf("f32 GetDT after Put: dtype=%v recycled=%v, want the pooled f32 buffer", g32.DType(), g32 == f32t)
	}
	news, gets := ar.Allocs()
	if gets != 4 || news != 2 {
		t.Fatalf("Allocs() = (news=%d, gets=%d), want (2, 4): recycled Gets must not allocate", news, gets)
	}
	if GetZeroed := ar.GetZeroedDT(F32, 2, 2); GetZeroed.MaxAbs() != 0 {
		t.Fatal("GetZeroedDT returned non-zero contents")
	}
}

// TestConvertRoundTrip pins ConvertTo semantics: same-dtype is identity
// (same tensor), f64→f32 is the direct float32 cast, f32→f64 is exact.
func TestConvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randTensor(rng, 3, 5)
	if x.ConvertTo(F64) != x {
		t.Fatal("ConvertTo(F64) of an f64 tensor must return the same tensor")
	}
	x32 := x.ConvertTo(F32)
	for i, v := range x.Data {
		if x32.data32[i] != float32(v) {
			t.Fatalf("element %d: ConvertTo(F32) = %v, want direct cast %v", i, x32.data32[i], float32(v))
		}
	}
	back := x32.ConvertTo(F64)
	for i, v := range x32.data32 {
		if back.Data[i] != float64(v) {
			t.Fatalf("element %d: f32→f64 not exact", i)
		}
	}
	// SetFloat64s / Float64s are the cast-copy twins used by the feeders.
	y := New32(2, 3)
	vals := []float64{1, 0.5, -2.25, 3e-8, 1e20, -0}
	y.SetFloat64s(0, vals)
	got := y.Float64s(nil)
	for i, v := range vals {
		if got[i] != float64(float32(v)) {
			t.Fatalf("SetFloat64s/Float64s element %d: got %v, want %v", i, got[i], float64(float32(v)))
		}
	}
}

// TestElementwiseOps32 covers the dtype-dispatching tensor methods at f32
// against their definitionally-simple float32 results.
func TestElementwiseOps32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randOf[float32](rng, 4, 4)
	b := randOf[float32](rng, 4, 4)
	av := append([]float32(nil), a.data32...)

	c := a.Clone()
	if c.DType() != F32 || !bitEqual(c, a) {
		t.Fatal("Clone of f32 tensor broken")
	}
	c.Add(b)
	for i := range av {
		if c.data32[i] != av[i]+b.data32[i] {
			t.Fatal("Add at f32 deviates")
		}
	}
	c.CopyFrom(a)
	c.Sub(b)
	for i := range av {
		if c.data32[i] != av[i]-b.data32[i] {
			t.Fatal("Sub at f32 deviates")
		}
	}
	c.CopyFrom(a)
	c.AddScaled(b, 0.5)
	for i := range av {
		if c.data32[i] != av[i]+float32(0.5)*b.data32[i] {
			t.Fatal("AddScaled at f32 deviates")
		}
	}
	c.CopyFrom(a)
	c.Scale(3)
	for i := range av {
		if c.data32[i] != av[i]*3 {
			t.Fatal("Scale at f32 deviates")
		}
	}
	c.CopyFrom(a)
	c.Hadamard(b)
	for i := range av {
		if c.data32[i] != av[i]*b.data32[i] {
			t.Fatal("Hadamard at f32 deviates")
		}
	}
	if a.Size() != 16 || a.Reshape(16).Size() != 16 || a.Reshape(16).DType() != F32 {
		t.Fatal("Size/Reshape at f32 broken")
	}
	a.Set(42, 1, 2)
	if a.At(1, 2) != 42 {
		t.Fatal("At/Set at f32 broken")
	}
	sum := 0.0
	for _, v := range a.data32 {
		sum += float64(v)
	}
	if a.Sum() != sum || a.Mean() != sum/16 {
		t.Fatal("Sum/Mean at f32 deviate")
	}
	if !a.AllClose(a, 0) || a.AllClose(b, 0) || a.AllClose(randTensor(rng, 4, 4), 1e9) {
		t.Fatal("AllClose at f32 broken (must reject dtype mismatch)")
	}
}

// TestMixedDTypePanics locks in the loud-failure contract: handing mixed
// dtypes to a kernel must panic, never silently no-op over a nil slice.
func TestMixedDTypePanics(t *testing.T) {
	a64 := New(2, 2)
	a32 := New32(2, 2)
	cases := map[string]func(){
		"Add":        func() { a64.Add(a32) },
		"CopyFrom":   func() { a32.CopyFrom(a64) },
		"MatMulInto": func() { MatMulInto(New(2, 2), a64, a32) },
		"ParMatMul":  func() { (*Parallel)(nil).MatMulInto(New32(2, 2), a32, a64) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mixed dtypes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAxpyMatchesScalar drives the axpy4x2 microkernel directly against a
// hand-rolled scalar loop. On GOAMD64=v3 builds this is the asm-vs-scalar
// oracle test; on baseline builds it covers the pure-Go stub, so the
// contract is pinned under both build tags.
func TestAxpyMatchesScalar(t *testing.T) {
	t.Logf("haveAxpy=%v (asm path exercised only on GOAMD64=v3 builds)", haveAxpy)
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{8, 16, 64, 256} {
		c0 := make([]float32, n)
		c1 := make([]float32, n)
		b := make([][]float32, 4)
		var coef [8]float32
		for i := range coef {
			coef[i] = float32(rng.NormFloat64())
		}
		for r := range b {
			b[r] = make([]float32, n)
			for j := range b[r] {
				b[r][j] = float32(rng.NormFloat64())
			}
		}
		for j := range c0 {
			c0[j] = float32(rng.NormFloat64())
			c1[j] = float32(rng.NormFloat64())
		}
		want0 := append([]float32(nil), c0...)
		want1 := append([]float32(nil), c1...)
		for j := 0; j < n; j++ {
			s0, s1 := want0[j], want1[j]
			s0 += coef[0] * b[0][j]
			s1 += coef[4] * b[0][j]
			s0 += coef[1] * b[1][j]
			s1 += coef[5] * b[1][j]
			s0 += coef[2] * b[2][j]
			s1 += coef[6] * b[2][j]
			s0 += coef[3] * b[3][j]
			s1 += coef[7] * b[3][j]
			want0[j] = s0
			want1[j] = s1
		}
		axpy4x2(&c0[0], &c1[0], &b[0][0], &b[1][0], &b[2][0], &b[3][0], &coef, n)
		for j := 0; j < n; j++ {
			if c0[j] != want0[j] || c1[j] != want1[j] {
				t.Fatalf("axpy4x2 n=%d deviates from scalar at column %d: (%v,%v) vs (%v,%v)",
					n, j, c0[j], c1[j], want0[j], want1[j])
			}
		}
	}
}

// TestGEMM32AgainstF64Oracle validates the f32 kernels against the bit-exact
// f64 oracle by relative error: same inputs (f32-representable), both
// dtypes, answers within float32 rounding accumulated over the reduction.
func TestGEMM32AgainstF64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, sh := range [][3]int{{16, 16, 16}, {64, 64, 64}, {7, 33, 5}} {
		m, k, n := sh[0], sh[1], sh[2]
		a32 := randOf[float32](rng, m, k)
		b32 := randOf[float32](rng, k, n)
		a64, b64 := a32.ConvertTo(F64), b32.ConvertTo(F64)
		want := MatMul(a64, b64)
		got := MatMul(a32, b32)
		// Tolerance: k steps of float32 rounding, each ≤ 2⁻²⁴ relative,
		// with headroom for cancellation (documented in DESIGN.md §15).
		tol := float64(k) * 1e-6
		for i, v := range got.data32 {
			if !relClose(float64(v), want.Data[i], tol) {
				t.Fatalf("MatMul f32 vs f64 oracle m=%d k=%d n=%d element %d: %v vs %v",
					m, k, n, i, v, want.Data[i])
			}
		}
	}
}

// TestPool32MatchesF64Oracle runs the pooling/GAP kernels at both dtypes on
// identical (f32-representable) inputs. Max pooling must agree exactly —
// comparisons are order-preserved by casting — and the averaging kernels to
// relative tolerance.
func TestPool32MatchesF64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	x32 := randOf[float32](rng, 2, 3, 8, 8)
	x64 := x32.ConvertTo(F64)

	y32, am32 := MaxPool2DForward(x32, 2, 2)
	y64, am64 := MaxPool2DForward(x64, 2, 2)
	for i := range am32 {
		if am32[i] != am64[i] {
			t.Fatalf("max-pool argmax differs at %d: cast preserves order, so this is a bug", i)
		}
		if float64(y32.data32[i]) != y64.Data[i] {
			t.Fatalf("max-pool value differs at %d", i)
		}
	}
	dy32 := randOf[float32](rng, y32.Shape...)
	dx32 := MaxPool2DBackward(dy32, am32, x32.Shape)
	dx64 := MaxPool2DBackward(dy32.ConvertTo(F64), am64, x64.Shape)
	for i, v := range dx32.data32 {
		if !relClose(float64(v), dx64.Data[i], 1e-6) {
			t.Fatalf("max-pool backward deviates at %d", i)
		}
	}

	g32 := GlobalAvgPoolForward(x32)
	g64 := GlobalAvgPoolForward(x64)
	for i, v := range g32.data32 {
		if !relClose(float64(v), g64.Data[i], 1e-5) {
			t.Fatalf("GAP forward deviates at %d: %v vs %v", i, v, g64.Data[i])
		}
	}
	gd32 := GlobalAvgPoolBackward(g32, x32.Shape)
	gd64 := GlobalAvgPoolBackward(g64, x64.Shape)
	for i, v := range gd32.data32 {
		if !relClose(float64(v), gd64.Data[i], 1e-5) {
			t.Fatalf("GAP backward deviates at %d", i)
		}
	}

	a32 := AvgPool2DForward(x32, 2)
	a64 := AvgPool2DForward(x64, 2)
	for i, v := range a32.data32 {
		if !relClose(float64(v), a64.Data[i], 1e-5) {
			t.Fatalf("avg-pool forward deviates at %d", i)
		}
	}
	ad32 := AvgPool2DBackward(a32, x32.Shape, 2)
	ad64 := AvgPool2DBackward(a64, x64.Shape, 2)
	for i, v := range ad32.data32 {
		if !relClose(float64(v), ad64.Data[i], 1e-5) {
			t.Fatalf("avg-pool backward deviates at %d", i)
		}
	}
}

// TestConv32AgainstF64Oracle closes the conv loop against the f64 oracle at
// relative tolerance (forward + all three gradients).
func TestConv32AgainstF64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for _, tc := range convCases() {
		x32 := randOf[float32](rng, 2, tc.c, tc.h, tc.w)
		w32 := randOf[float32](rng, tc.f, tc.c, tc.kh, tc.kh)
		b32 := randOf[float32](rng, tc.f)
		x64, w64, b64 := x32.ConvertTo(F64), w32.ConvertTo(F64), b32.ConvertTo(F64)

		y32, cols32 := Conv2DForward(x32, w32, b32, tc.stride, tc.pad)
		y64, cols64 := Conv2DForward(x64, w64, b64, tc.stride, tc.pad)
		fan := tc.c * tc.kh * tc.kh
		tol := float64(fan) * 1e-6
		for i, v := range y32.data32 {
			if !relClose(float64(v), y64.Data[i], tol) {
				t.Fatalf("conv fwd %+v deviates at %d: %v vs %v", tc, i, v, y64.Data[i])
			}
		}
		dy32 := randOf[float32](rng, y32.Shape...)
		dw32, db32 := New32(w32.Shape...), New32(tc.f)
		dx32 := Conv2DBackward(dy32, w32, cols32, dw32, db32, x32.Shape, tc.stride, tc.pad)
		dw64, db64 := New(w64.Shape...), New(tc.f)
		dx64 := Conv2DBackward(dy32.ConvertTo(F64), w64, cols64, dw64, db64, x64.Shape, tc.stride, tc.pad)
		red := float64(y32.Shape[2]*y32.Shape[3]) * 1e-6 // dw reduces over OH·OW
		for i, v := range dw32.data32 {
			if !relClose(float64(v), dw64.Data[i], red) {
				t.Fatalf("conv dw %+v deviates at %d", tc, i)
			}
		}
		for i, v := range db32.data32 {
			if !relClose(float64(v), db64.Data[i], red) {
				t.Fatalf("conv db %+v deviates at %d", tc, i)
			}
		}
		for i, v := range dx32.data32 {
			if !relClose(float64(v), dx64.Data[i], tol) {
				t.Fatalf("conv dx %+v deviates at %d", tc, i)
			}
		}
	}
}

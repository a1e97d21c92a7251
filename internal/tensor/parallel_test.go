package tensor

import (
	"math/rand"
	"slices"
	"testing"
)

// forceParallel routes every kernel through the worker fan-out regardless of
// size, restoring the grain threshold on cleanup — edge shapes must exercise
// the tiled path, not the serial cutover.
func forceParallel(tb testing.TB) {
	tb.Helper()
	old := parGrainFLOPs
	parGrainFLOPs = 0
	tb.Cleanup(func() { parGrainFLOPs = old })
}

// testGroups yields the worker counts the equivalence properties run at:
// serial (nil), two workers, eight workers (more workers than most edge
// shapes have rows, so empty tiles are exercised too).
func testGroups(t *testing.T) []*Parallel {
	t.Helper()
	groups := []*Parallel{nil, NewParallel(2), NewParallel(8)}
	t.Cleanup(func() {
		for _, p := range groups {
			p.Close()
		}
	})
	return groups
}

// randOf draws a tensor of T's dtype whose values are T casts of normal
// draws — the standard input for the equivalence matrices.
func randOf[T Elem](rng *rand.Rand, shape ...int) *Tensor {
	x := NewDT(dtypeOf[T](), shape...)
	d := DataOf[T](x)
	for i := range d {
		d[i] = T(rng.NormFloat64())
	}
	return x
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor { return randOf[float64](rng, shape...) }

// bitEqual reports exact element-wise equality of two same-dtype tensors
// (the determinism contract is bit-identity, not closeness).
func bitEqual(a, b *Tensor) bool {
	if a.dtype != b.dtype {
		return false
	}
	if a.dtype == F32 {
		return slices.Equal(a.data32, b.data32)
	}
	return slices.Equal(a.Data, b.Data)
}

// gemmShapes are the property-test shapes: randomized sizes plus the edge
// geometry the tiling must survive — unit dimensions, sizes just off the
// 2-row/4-step unroll boundaries, and reduction lengths 1..5.
func gemmShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {1, 64, 33}, {2, 4, 8}, {3, 5, 7},
		{8, 1, 8}, {33, 3, 2}, {16, 16, 16}, {2, 2, 31}, {5, 9, 1},
	}
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(24), 1 + rng.Intn(24), 1 + rng.Intn(24)})
	}
	return shapes
}

// checkGEMMForms runs all five GEMM forms through p and through the
// package-level kernels and fails unless each is bit-identical to the scalar
// reference kernel at T. The a·bᵀ-accumulate form has no exported entry of
// its own (conv backward uses it), so it is dispatched as a job directly.
func checkGEMMForms[T Elem](t *testing.T, rng *rand.Rand, p *Parallel, m, k, n int) {
	t.Helper()
	dt := dtypeOf[T]()
	a, b := randOf[T](rng, m, k), randOf[T](rng, k, n)
	at, bt := randOf[T](rng, k, m), randOf[T](rng, n, k) // for the ᵀa / bᵀ forms
	acc0 := randOf[T](rng, m, n)
	ref := func(f func(dst, a, b []T, x, y, z int), dst, a, b *Tensor, x, y, z int) *Tensor {
		f(DataOf[T](dst), DataOf[T](a), DataOf[T](b), x, y, z)
		return dst
	}
	wantMM := ref(matMulSlices[T], NewDT(dt, m, n), a, b, m, k, n)
	wantTA := ref(matMulTransASlices[T], NewDT(dt, m, n), at, b, k, m, n)
	wantTAAcc := ref(matMulTransASlicesAcc[T], acc0.Clone(), at, b, k, m, n)
	wantTB := ref(matMulTransBSlices[T], NewDT(dt, m, n), a, bt, m, k, n)
	wantTBAcc := ref(matMulTransBSlicesAcc[T], acc0.Clone(), a, bt, m, k, n)

	check := func(form string, got, want *Tensor) {
		t.Helper()
		if !bitEqual(got, want) {
			t.Fatalf("%s %s m=%d k=%d n=%d workers=%d deviates from reference", form, dt, m, k, n, p.Workers())
		}
	}
	got := NewDT(dt, m, n)
	p.MatMulInto(got, a, b)
	check("MatMul", got, wantMM)
	p.MatMulTransAInto(got, at, b)
	check("MatMulTransA", got, wantTA)
	gotAcc := acc0.Clone()
	p.MatMulTransAAccInto(gotAcc, at, b)
	check("MatMulTransAAcc", gotAcc, wantTAAcc)
	p.MatMulTransBInto(got, a, bt)
	check("MatMulTransB", got, wantTB)
	gotAcc = acc0.Clone()
	p.run(m*k*n, bind(job{kind: jobMMTBAcc, units: m, m: m, k: k, n: n},
		operands[T]{dst: DataOf[T](gotAcc), a: DataOf[T](a), b: DataOf[T](bt)}))
	check("MatMulTransBAcc", gotAcc, wantTBAcc)

	// The package-level Into forms dispatch to the same scalar kernels.
	MatMulInto(got, a, b)
	check("package MatMulInto", got, wantMM)
	MatMulTransAInto(got, at, b)
	check("package MatMulTransAInto", got, wantTA)
	gotAcc = acc0.Clone()
	MatMulTransAAccInto(gotAcc, at, b)
	check("package MatMulTransAAccInto", gotAcc, wantTAAcc)
	MatMulTransBInto(got, a, bt)
	check("package MatMulTransBInto", got, wantTB)
}

// TestBlockedGEMMMatchesReference proves the blocked, parallel GEMM kernels
// bit-identical to the reference scalar kernels for every transpose form,
// across randomized and edge shapes, worker counts 1/2/8 and both dtypes
// (at f32 this includes the AVX microkernel on GOAMD64=v3 builds).
func TestBlockedGEMMMatchesReference(t *testing.T) {
	t.Run("f64", testBlockedGEMM[float64])
	t.Run("f32", testBlockedGEMM[float32])
}

func testBlockedGEMM[T Elem](t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(42))
	groups := testGroups(t)
	for _, sh := range gemmShapes(rng) {
		for _, p := range groups {
			checkGEMMForms[T](t, rng, p, sh[0], sh[1], sh[2])
		}
	}
}

// FuzzBlockedMatchesReference is the differential fuzz target of the kernel
// layer: for a generated dtype, m, k, n in [1, 48] and worker count in
// {1, 2, 3, 4}, all five GEMM forms and the fused conv forward of a geometry
// derived from the same numbers must be bit-identical to the scalar
// reference. The seed corpus below runs under plain `go test`; fuzz with
// `go test -fuzz FuzzBlockedMatchesReference ./internal/tensor`.
func FuzzBlockedMatchesReference(f *testing.F) {
	forceParallel(f)
	for _, s := range []struct {
		f32              bool
		m, k, n, workers uint8
	}{
		{false, 1, 1, 1, 1},   // unit everything
		{true, 3, 3, 5, 2},    // k < 4: no 4-step pass at all
		{true, 7, 9, 8, 3},    // odd m, n = 8: the axpy prefix is the whole row
		{true, 2, 4, 7, 4},    // n < 8: no axpy prefix
		{false, 5, 13, 17, 3}, // odd m, k and n, remainders everywhere
		{true, 1, 48, 48, 4},  // one row (the batch-1 GEMV shape), split by columns
		{true, 48, 6, 9, 2},   // tall: split by rows, n = 8 + 1
		{false, 33, 2, 31, 4}, // k < 4 at f64
	} {
		f.Add(s.f32, s.m, s.k, s.n, s.workers, int64(s.m)*7919+int64(s.n))
	}
	f.Fuzz(func(t *testing.T, f32 bool, mb, kb, nb, wb uint8, seed int64) {
		m, k, n := 1+int(mb)%48, 1+int(kb)%48, 1+int(nb)%48
		p := NewParallel(1 + int(wb)%4)
		defer p.Close()
		rng := rand.New(rand.NewSource(seed))
		if f32 {
			fuzzBlocked[float32](t, rng, p, m, k, n)
		} else {
			fuzzBlocked[float64](t, rng, p, m, k, n)
		}
	})
}

func fuzzBlocked[T Elem](t *testing.T, rng *rand.Rand, p *Parallel, m, k, n int) {
	checkGEMMForms[T](t, rng, p, m, k, n)
	// A conv geometry derived from the GEMM sizes: 1–4 channels, 3–8 pixel
	// planes, 1×1 or 3×3 kernels, stride 1–2, with and without padding.
	tc := convCase{c: 1 + k%4, h: 3 + n%6, f: 1 + m%5, kh: 1 + 2*(k%2), stride: 1 + m%2, pad: n % 2}
	tc.w = tc.h
	x := randOf[T](rng, 1+m%2, tc.c, tc.h, tc.w)
	w := randOf[T](rng, tc.f, tc.c, tc.kh, tc.kh)
	bias := randOf[T](rng, tc.f)
	yRef, colsRef := Conv2DForward(x, w, bias, tc.stride, tc.pad)
	y, cols := p.ConvForward(NewArena(), x, w, bias, tc.stride, tc.pad, nil)
	if !bitEqual(y, yRef) {
		t.Fatalf("fused ConvForward %+v workers=%d output deviates from reference", tc, p.Workers())
	}
	for s := range cols {
		if !bitEqual(cols[s], colsRef[s]) {
			t.Fatalf("fused ConvForward %+v workers=%d im2col deviates from reference", tc, p.Workers())
		}
	}
}

// convCase is one convolution geometry of the equivalence properties.
type convCase struct {
	c, h, w, f, kh, stride, pad int
}

// convCases covers the edge geometry: no padding (the unzeroed im2col fast
// path), kernel == input, stride 2, single channel/filter, and typical
// ResNet-block shapes.
func convCases() []convCase {
	return []convCase{
		{c: 1, h: 3, w: 3, f: 1, kh: 3, stride: 1, pad: 0},   // kernel == input
		{c: 2, h: 5, w: 5, f: 3, kh: 3, stride: 1, pad: 1},   // zero-padded
		{c: 3, h: 8, w: 8, f: 4, kh: 3, stride: 2, pad: 1},   // strided
		{c: 4, h: 6, w: 6, f: 2, kh: 1, stride: 1, pad: 0},   // 1x1, pad-0
		{c: 2, h: 9, w: 9, f: 5, kh: 5, stride: 2, pad: 2},   // big kernel
		{c: 8, h: 12, w: 12, f: 8, kh: 3, stride: 1, pad: 1}, // bench shape
	}
}

// TestParallelConvMatchesReference proves the fused parallel conv forward
// and backward bit-identical to the scalar im2col reference
// (Conv2DForwardArena / Conv2DBackwardArena) across geometries, worker
// counts and both dtypes, including the produced im2col matrices the
// backward pass stores — and pooled ≡ unpooled: the arena path must be
// bit-identical to the nil-arena path.
func TestParallelConvMatchesReference(t *testing.T) {
	t.Run("f64", testParallelConv[float64])
	t.Run("f32", testParallelConv[float32])
}

func testParallelConv[T Elem](t *testing.T) {
	forceParallel(t)
	dt := dtypeOf[T]()
	rng := rand.New(rand.NewSource(43))
	groups := testGroups(t)
	for _, tc := range convCases() {
		x := randOf[T](rng, 1, tc.c, tc.h, tc.w)
		w := randOf[T](rng, tc.f, tc.c, tc.kh, tc.kh)
		bias := randOf[T](rng, tc.f)
		yRef, colsRef := Conv2DForward(x, w, bias, tc.stride, tc.pad)
		if yRef.DType() != dt {
			t.Fatal("Conv2DForward did not preserve dtype")
		}
		dy := randOf[T](rng, yRef.Shape...)
		dwRef, dbRef := NewDT(dt, w.Shape...), NewDT(dt, tc.f)
		dxRef := Conv2DBackward(dy, w, colsRef, dwRef, dbRef, x.Shape, tc.stride, tc.pad)

		for _, p := range groups {
			for _, ar := range []*Arena{nil, NewArena()} {
				y, cols := p.ConvForward(ar, x, w, bias, tc.stride, tc.pad, nil)
				if !bitEqual(y, yRef) {
					t.Fatalf("ConvForward %+v workers=%d arena=%v output deviates", tc, p.Workers(), ar != nil)
				}
				for s := range cols {
					if !bitEqual(cols[s], colsRef[s]) {
						t.Fatalf("ConvForward %+v workers=%d im2col deviates", tc, p.Workers())
					}
				}
				dw, db := NewDT(dt, w.Shape...), NewDT(dt, tc.f)
				dx := p.ConvBackward(ar, dy, w, cols, dw, db, x.Shape, tc.stride, tc.pad)
				if !bitEqual(dx, dxRef) || !bitEqual(dw, dwRef) || !bitEqual(db, dbRef) {
					t.Fatalf("ConvBackward %+v workers=%d arena=%v gradients deviate", tc, p.Workers(), ar != nil)
				}
			}
		}
	}
}

// TestConv2DNaiveMatchesIm2Col closes the oracle gap: the direct-loop
// Conv2DNaive and the im2col fast path must agree (to rounding — the naive
// loop adds the bias before the products, the GEMM after) on every
// geometry, making Conv2DNaive a valid oracle for the fused parallel path.
func TestConv2DNaiveMatchesIm2Col(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(44))
	groups := testGroups(t)
	for _, tc := range convCases() {
		x := randTensor(rng, 2, tc.c, tc.h, tc.w)
		w := randTensor(rng, tc.f, tc.c, tc.kh, tc.kh)
		bias := randTensor(rng, tc.f)
		want := Conv2DNaive(x, w, bias, tc.stride, tc.pad)
		yIm2col, _ := Conv2DForward(x, w, bias, tc.stride, tc.pad)
		if !yIm2col.AllClose(want, 1e-9) {
			t.Fatalf("im2col conv deviates from naive oracle at %+v", tc)
		}
		for _, p := range groups {
			y, _ := p.ConvForward(nil, x, w, bias, tc.stride, tc.pad, nil)
			if !y.AllClose(want, 1e-9) {
				t.Fatalf("fused conv (workers=%d) deviates from naive oracle at %+v", p.Workers(), tc)
			}
		}
	}
}

// TestParallelIm2ColCol2ImMatchesReference checks the standalone unfold/fold
// kernels against their scalar references across worker counts and dtypes.
func TestParallelIm2ColCol2ImMatchesReference(t *testing.T) {
	t.Run("f64", testParallelIm2ColCol2Im[float64])
	t.Run("f32", testParallelIm2ColCol2Im[float32])
}

func testParallelIm2ColCol2Im[T Elem](t *testing.T) {
	forceParallel(t)
	dt := dtypeOf[T]()
	rng := rand.New(rand.NewSource(45))
	groups := testGroups(t)
	for _, tc := range convCases() {
		x := randOf[T](rng, tc.c, tc.h, tc.w)
		want := Im2Col(x, tc.kh, tc.kh, tc.stride, tc.pad)
		backWant := Col2Im(want, tc.c, tc.h, tc.w, tc.kh, tc.kh, tc.stride, tc.pad)
		if want.DType() != dt || backWant.DType() != dt {
			t.Fatal("Im2Col/Col2Im did not preserve dtype")
		}
		for _, p := range groups {
			got := NewDT(dt, want.Shape...)
			p.Im2ColInto(got, x, tc.kh, tc.kh, tc.stride, tc.pad)
			if !bitEqual(got, want) {
				t.Fatalf("Im2Col %+v workers=%d deviates", tc, p.Workers())
			}
			back := NewDT(dt, tc.c, tc.h, tc.w)
			p.Col2ImInto(back, got, tc.c, tc.h, tc.w, tc.kh, tc.kh, tc.stride, tc.pad)
			if !bitEqual(back, backWant) {
				t.Fatalf("Col2Im %+v workers=%d deviates", tc, p.Workers())
			}
		}
	}
}

// TestParallelLifecycle pins the group API: worker counts, nil-safety, Close
// idempotence, and the serial fallback after Close still computing correct
// results.
func TestParallelLifecycle(t *testing.T) {
	if got := (*Parallel)(nil).Workers(); got != 1 {
		t.Fatalf("nil group Workers() = %d, want 1", got)
	}
	(*Parallel)(nil).Close() // must not panic
	if p := NewParallel(1); p != nil {
		t.Fatal("NewParallel(1) should be the nil serial group")
	}
	p := NewParallel(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p.Workers())
	}
	rng := rand.New(rand.NewSource(46))
	a, b := randTensor(rng, 8, 8), randTensor(rng, 8, 8)
	want := MatMul(a, b)
	got := New(8, 8)
	p.MatMulInto(got, a, b)
	if !bitEqual(got, want) {
		t.Fatal("open group deviates from reference")
	}
	p.Close()
	p.Close() // idempotent
	got.Zero()
	p.MatMulInto(got, a, b) // serial fallback after Close
	if !bitEqual(got, want) {
		t.Fatal("closed group's serial fallback deviates from reference")
	}
}

// TestParallelSteadyStateAllocs locks in that kernel dispatch through a
// worker group allocates nothing at either dtype: pre-spawned workers,
// reused signal channels, no per-call closures or operand boxing.
func TestParallelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	forceParallel(t)
	rng := rand.New(rand.NewSource(47))
	p := NewParallel(4)
	defer p.Close()
	for _, dt := range []DType{F64, F32} {
		a := randTensor(rng, 32, 32).ConvertTo(dt)
		b := randTensor(rng, 32, 32).ConvertTo(dt)
		dst := NewDT(dt, 32, 32)
		ar := NewArena()
		x := randTensor(rng, 1, 4, 10, 10).ConvertTo(dt)
		w := randTensor(rng, 4, 4, 3, 3).ConvertTo(dt)
		dwT := NewDT(dt, 4, 4, 3, 3)
		colsBuf := make([]*Tensor, 0, 1)
		warm := func() {
			p.MatMulInto(dst, a, b)
			y, cols := p.ConvForward(ar, x, w, nil, 1, 1, colsBuf)
			colsBuf = cols[:0]
			dx := p.ConvBackward(ar, y, w, cols, dwT, nil, x.Shape, 1, 1)
			ar.Put(y, dx)
			ar.Put(cols...)
		}
		for i := 0; i < 3; i++ {
			warm()
		}
		if allocs := testing.AllocsPerRun(50, warm); allocs > 0 {
			t.Errorf("%s parallel kernel dispatch allocates %v per call, want 0", dt, allocs)
		}
	}
}

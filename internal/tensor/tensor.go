// Package tensor provides dense float64 and float32 tensors and the numeric
// kernels (matmul, conv2d, pooling) used by the neural-network layers in
// this repository. Layout is row-major; convolutional tensors use NCHW and
// dense tensors use [N, F]. Every kernel is written once, generic over Elem;
// exported entry points switch on the tensor's DType once and call the
// matching instantiation. The package is intentionally small: it is the
// pure-Go substitute for the cuDNN kernels used by the paper's GProp
// framework (see DESIGN.md, substitution table).
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major tensor. The default element type is float64
// (Data); F32 tensors built with New32/NewDT store float32 in data32 instead
// and leave Data nil. Exactly one of the two backing slices is non-nil.
// The zero value is not usable; construct with New, New32 or FromSlice.
type Tensor struct {
	Shape []int
	Data  []float64
	// data32 is the float32 storage of F32 tensors (see dtype.go); accessed
	// via Data32. Kept unexported so the float64 field layout and every
	// existing call site stay untouched.
	data32 []float32
	dtype  DType
	// poolable marks tensors handed out by an Arena; only those are ever
	// recycled by Arena.Put (see arena.go).
	poolable bool
}

// panicBadShape reports a non-positive dimension. It formats a copy of the
// shape so escape analysis keeps callers' variadic shape literals on the
// stack — the allocation-free hot path depends on this.
func panicBadShape(shape []int) {
	c := make([]int, len(shape))
	copy(c, shape)
	panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", c))
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is non-positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panicBadShape(shape)
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it panics if the length does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	if t.dtype == F32 {
		return len(t.data32)
	}
	return len(t.Data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := NewDT(t.dtype, t.Shape...)
	c.CopyFrom(t)
	return c
}

// CopyFrom copies o's data into t. Shapes must have equal sizes and dtypes
// must match.
func (t *Tensor) CopyFrom(o *Tensor) { zip("CopyFrom", t, o, copyInto[float32], copyInto[float64]) }

// Zero sets all elements to zero. Only one backing slice is non-nil, and
// clearing a nil slice is a no-op, so no dtype switch is needed.
func (t *Tensor) Zero() {
	clear(t.Data)
	clear(t.data32)
}

// Fill sets all elements to v (converted to t's dtype).
func (t *Tensor) Fill(v float64) {
	if t.dtype == F32 {
		fill(t.data32, float32(v))
		return
	}
	fill(t.Data, v)
}

// offset computes the flat index of a multi-dimensional index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given multi-dimensional index (converted to
// float64 for F32 tensors).
func (t *Tensor) At(idx ...int) float64 {
	if t.dtype == F32 {
		return float64(t.data32[t.offset(idx)])
	}
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index (converted to t's dtype).
func (t *Tensor) Set(v float64, idx ...int) {
	if t.dtype == F32 {
		t.data32[t.offset(idx)] = float32(v)
		return
	}
	t.Data[t.offset(idx)] = v
}

// zip checks that o matches t's dtype and size, then runs the instantiation
// of f for that dtype over t's and o's storage — the one dtype switch
// behind every binary element-wise method.
func zip(op string, t, o *Tensor, f32 func(dst, src []float32), f64 func(dst, src []float64)) {
	checkSameDType(op, t.dtype, o)
	if t.Size() != o.Size() {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.Shape, o.Shape))
	}
	if t.dtype == F32 {
		f32(t.data32, o.data32)
		return
	}
	f64(t.Data, o.Data)
}

// Add adds o element-wise into t (t += o).
func (t *Tensor) Add(o *Tensor) { zip("Add", t, o, add[float32], add[float64]) }

// Sub subtracts o element-wise from t (t -= o).
func (t *Tensor) Sub(o *Tensor) { zip("Sub", t, o, sub[float32], sub[float64]) }

// Hadamard performs element-wise multiplication t *= o.
func (t *Tensor) Hadamard(o *Tensor) { zip("Hadamard", t, o, mul[float32], mul[float64]) }

// AddScaled performs t += alpha*o. For F32 tensors alpha is rounded to
// float32 once, then the multiply-add runs entirely in float32.
func (t *Tensor) AddScaled(o *Tensor, alpha float64) {
	zip("AddScaled", t, o,
		func(dst, src []float32) { addScaled(dst, src, float32(alpha)) },
		func(dst, src []float64) { addScaled(dst, src, alpha) })
}

// Scale multiplies every element by alpha (rounded to float32 once for F32
// tensors).
func (t *Tensor) Scale(alpha float64) {
	if t.dtype == F32 {
		scale(t.data32, float32(alpha))
		return
	}
	scale(t.Data, alpha)
}

func copyInto[T Elem](dst, src []T) { copy(dst, src) }

func add[T Elem](dst, src []T) {
	for i, v := range src {
		dst[i] += v
	}
}

func sub[T Elem](dst, src []T) {
	for i, v := range src {
		dst[i] -= v
	}
}

func mul[T Elem](dst, src []T) {
	for i, v := range src {
		dst[i] *= v
	}
}

func addScaled[T Elem](dst, src []T, alpha T) {
	for i, v := range src {
		dst[i] += alpha * v
	}
}

func scale[T Elem](s []T, alpha T) {
	for i := range s {
		s[i] *= alpha
	}
}

func fill[T Elem](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// Sum returns the sum of all elements. F32 tensors accumulate in float64
// (exact for any realistic tensor size) in flat index order.
func (t *Tensor) Sum() float64 {
	if t.dtype == F32 {
		return sum(t.data32)
	}
	return sum(t.Data)
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(t.Size()) }

// MaxAbs returns the maximum absolute element value.
func (t *Tensor) MaxAbs() float64 {
	if t.dtype == F32 {
		return maxAbs(t.data32)
	}
	return maxAbs(t.Data)
}

// Norm2 returns the Euclidean norm of the flattened tensor (float64
// accumulation for both dtypes).
func (t *Tensor) Norm2() float64 {
	if t.dtype == F32 {
		return norm2(t.data32)
	}
	return norm2(t.Data)
}

// AllClose reports whether every element of t is within tol of o. The
// tensors must share a dtype; the comparison runs in float64.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if t.dtype != o.dtype || t.Size() != o.Size() {
		return false
	}
	if t.dtype == F32 {
		return allClose(t.data32, o.data32, tol)
	}
	return allClose(t.Data, o.Data, tol)
}

// ArgMaxRow returns, for a 2-D tensor [N, F], the index of the maximum
// element in row n.
func (t *Tensor) ArgMaxRow(n int) int {
	if len(t.Shape) != 2 {
		panic("tensor: ArgMaxRow requires a 2-D tensor")
	}
	f := t.Shape[1]
	if t.dtype == F32 {
		return argMax(t.data32[n*f : (n+1)*f])
	}
	return argMax(t.Data[n*f : (n+1)*f])
}

func sum[T Elem](s []T) float64 {
	acc := 0.0
	for _, v := range s {
		acc += float64(v)
	}
	return acc
}

func maxAbs[T Elem](s []T) float64 {
	m := 0.0
	for _, v := range s {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

func norm2[T Elem](s []T) float64 {
	acc := 0.0
	for _, v := range s {
		x := float64(v)
		acc += x * x
	}
	return math.Sqrt(acc)
}

func allClose[T Elem](a, b []T, tol float64) bool {
	for i, v := range a {
		if math.Abs(float64(v)-float64(b[i])) > tol {
			return false
		}
	}
	return true
}

func argMax[T Elem](row []T) int {
	best, bi := row[0], 0
	for i, v := range row {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// checkDst validates an Into-kernel destination shape.
func checkDst(op string, dst *Tensor, m, n int) {
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst %v, want [%d,%d]", op, dst.Shape, m, n))
	}
}

// matMulSlices computes dst = a·b over raw row-major slices (a [m,k],
// b [k,n], dst [m,n]), fully overwriting dst. There is deliberately no
// zero-operand short-circuit: 0·NaN and 0·Inf must propagate rather than be
// silently flushed to zero, and the dense hot path avoids a data-dependent
// branch.
func matMulSlices[T Elem](dst, a, b []T, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := dst[i*n : (i+1)*n]
		clear(crow)
		for p := 0; p < k; p++ {
			av := arow[p]
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// matMulTransASlices computes dst = aᵀ·b over raw slices (a [k,m], b [k,n],
// dst [m,n]), fully overwriting dst.
func matMulTransASlices[T Elem](dst, a, b []T, k, m, n int) {
	clear(dst[:m*n])
	matMulTransASlicesAcc(dst, a, b, k, m, n)
}

// matMulTransASlicesAcc computes dst += aᵀ·b over raw slices (a [k,m],
// b [k,n], dst [m,n]), accumulating into dst.
func matMulTransASlicesAcc[T Elem](dst, a, b []T, k, m, n int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			crow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// matMulTransBSlices computes dst = a·bᵀ over raw slices (a [m,k], b [n,k],
// dst [m,n]), fully overwriting dst.
func matMulTransBSlices[T Elem](dst, a, b []T, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s T
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
}

// matMulTransBSlicesAcc computes dst += a·bᵀ over raw slices. Each dot
// product is computed separately and added once, so the result is
// bit-identical to matMulTransBSlices into scratch followed by an add —
// without the scratch traffic.
func matMulTransBSlicesAcc[T Elem](dst, a, b []T, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s T
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] += s
		}
	}
}

// gemmRef checks a and b against dst's dtype and runs that dtype's
// instantiation of a reference GEMM kernel.
func gemmRef(op string, dst, a, b *Tensor, x, y, z int,
	f32 func(dst, a, b []float32, x, y, z int), f64 func(dst, a, b []float64, x, y, z int)) {
	checkSameDType(op, dst.dtype, a, b)
	if dst.dtype == F32 {
		f32(dst.data32, a.data32, b.data32, x, y, z)
		return
	}
	f64(dst.Data, a.Data, b.Data, x, y, z)
}

// MatMulInto computes dst = a·b for a [m,k] and b [k,n] into dst [m,n],
// fully overwriting it. dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDst("MatMulInto", dst, m, n)
	gemmRef("MatMulInto", dst, a, b, m, k, n, matMulSlices[float32], matMulSlices[float64])
}

// MatMulTransAInto computes dst = aᵀ·b for a [k,m] and b [k,n] into
// dst [m,n], fully overwriting it. dst must not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDst("MatMulTransAInto", dst, m, n)
	gemmRef("MatMulTransAInto", dst, a, b, k, m, n, matMulTransASlices[float32], matMulTransASlices[float64])
}

// MatMulTransAAccInto computes dst += aᵀ·b for a [k,m] and b [k,n] into
// dst [m,n]. Used to accumulate weight gradients without a scratch product.
// dst must not alias a or b.
func MatMulTransAAccInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDst("MatMulTransAAccInto", dst, m, n)
	gemmRef("MatMulTransAAccInto", dst, a, b, k, m, n, matMulTransASlicesAcc[float32], matMulTransASlicesAcc[float64])
}

// MatMulTransBInto computes dst = a·bᵀ for a [m,k] and b [n,k] into
// dst [m,n], fully overwriting it. dst must not alias a or b.
func MatMulTransBInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	checkDst("MatMulTransBInto", dst, m, n)
	gemmRef("MatMulTransBInto", dst, a, b, m, k, n, matMulTransBSlices[float32], matMulTransBSlices[float64])
}

// Transpose returns a new tensor that is the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	c := NewDT(a.dtype, n, m)
	if a.dtype == F32 {
		transpose(c.data32, a.data32, m, n)
	} else {
		transpose(c.Data, a.Data, m, n)
	}
	return c
}

func transpose[T Elem](dst, src []T, m, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = src[i*n+j]
		}
	}
}

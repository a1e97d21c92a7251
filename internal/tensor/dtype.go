package tensor

import (
	"fmt"
	"unsafe"
)

// DType selects the element type of a Tensor's storage. The zero value is
// F64, so every pre-existing construction path (struct literals included)
// keeps float64 semantics without modification — the float64 path is the
// bit-exact oracle (DESIGN.md §15) and must never change behavior.
type DType uint8

const (
	// F64 is IEEE-754 binary64 storage — the default and the oracle dtype.
	F64 DType = iota
	// F32 is IEEE-754 binary32 storage — the SIMD-friendly serving/training
	// dtype, validated against F64 by relative-error tolerance.
	F32
)

// String returns the spelling ("f64"/"f32") that flags, configs and panic
// messages use.
func (d DType) String() string {
	if d == F32 {
		return "f32"
	}
	return "f64"
}

// ParseDType parses the artifact spelling of a dtype ("f64" or "f32"; the
// empty string means F64).
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return F64, fmt.Errorf("tensor: unknown dtype %q (want f32 or f64)", s)
}

// Elem constrains the generic kernels and helpers to the two supported
// element types. Every kernel in this package is written once over Elem.
// float32 and float64 have distinct GC shapes, so Go compiles a separate
// body for each instantiation and arithmetic on T needs no dictionary: the
// f32 and f64 kernels run exactly the loops a hand-written copy would.
type Elem interface {
	float32 | float64
}

// dtypeOf returns the DType storing T. unsafe.Sizeof of a type parameter
// is a constant in each instantiation, so the test folds away.
func dtypeOf[T Elem]() DType {
	var z T
	if unsafe.Sizeof(z) == 4 {
		return F32
	}
	return F64
}

// f32Align is the alignment contract of float32 backing slices, in elements:
// 16 float32 values = 64 bytes, one cache line and one AVX-512 vector. Every
// float32 slice allocated by this package (New32, the arena) starts on a
// 64-byte boundary so vector kernels see unit-stride aligned panels.
const f32Align = 16

// alignedF32 allocates n float32 values whose first element sits on a
// 64-byte boundary. Go's allocator aligns large slices naturally; this makes
// it a guarantee for every size by over-allocating one alignment quantum and
// re-slicing. Capacity is clamped to n so appends can never spill into the
// padding.
func alignedF32(n int) []float32 {
	raw := make([]float32, n+f32Align-1)
	off := 0
	if r := f32PtrMod64(raw); r != 0 {
		off = (64 - r) / 4
	}
	return raw[off : off+n : off+n]
}

// f32PtrMod64 returns the address of s's first element modulo 64 (0 for an
// empty slice) — the alignment probe behind alignedF32 and the layout tests.
func f32PtrMod64(s []float32) int {
	if len(s) == 0 {
		return 0
	}
	return int(uintptr(unsafe.Pointer(&s[0])) & 63)
}

// DType reports t's element type.
func (t *Tensor) DType() DType { return t.dtype }

// Data32 returns the float32 storage of an F32 tensor (nil for F64 tensors).
// Like Data, mutating it mutates the tensor.
func (t *Tensor) Data32() []float32 { return t.data32 }

// New32 returns a zero-filled float32 tensor with the given shape and
// 64-byte-aligned backing storage. It panics if any dimension is
// non-positive.
func New32(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panicBadShape(shape)
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, data32: alignedF32(n), dtype: F32}
}

// NewDT returns a zero-filled tensor of the given dtype — New or New32.
func NewDT(dt DType, shape ...int) *Tensor {
	if dt == F32 {
		return New32(shape...)
	}
	return New(shape...)
}

// ConvertTo returns t converted to the given dtype: t itself when the dtype
// already matches, else a fresh tensor whose every element is the direct Go
// conversion (float32(v) / float64(v)) of t's. F64→F32 rounds to nearest
// even; F32→F64 is exact.
func (t *Tensor) ConvertTo(dt DType) *Tensor {
	if t.dtype == dt {
		return t
	}
	c := NewDT(dt, t.Shape...)
	if dt == F32 {
		for i, v := range t.Data {
			c.data32[i] = float32(v)
		}
	} else {
		for i, v := range t.data32 {
			c.Data[i] = float64(v)
		}
	}
	return c
}

// SetFloat64s copies vals into t's flat storage starting at element off,
// converting to t's dtype (a plain copy for F64, a per-element float32
// conversion for F32). It is how dtype-agnostic feeders (the training loop,
// the serving batcher) load float64 samples into tensors of either dtype.
func (t *Tensor) SetFloat64s(off int, vals []float64) {
	if t.dtype == F32 {
		dst := t.data32[off : off+len(vals)]
		for i, v := range vals {
			dst[i] = float32(v)
		}
		return
	}
	copy(t.Data[off:off+len(vals)], vals)
}

// Float64s appends t's flat storage to dst as float64 values and returns the
// extended slice — the converting read twin of SetFloat64s.
func (t *Tensor) Float64s(dst []float64) []float64 {
	if t.dtype == F32 {
		for _, v := range t.data32 {
			dst = append(dst, float64(v))
		}
		return dst
	}
	return append(dst, t.Data...)
}

// SetData32 repoints an F32 tensor at new backing storage of equal length —
// the storage-swap primitive behind nn.Param.SwapData32 (the f64 twin just
// assigns the exported Data field).
func (t *Tensor) SetData32(data []float32) {
	if t.dtype != F32 {
		panic("tensor: SetData32 on non-f32 tensor")
	}
	if len(data) != len(t.data32) {
		panic(fmt.Sprintf("tensor: SetData32 length %d, want %d", len(data), len(t.data32)))
	}
	t.data32 = data
}

// DataOf returns t's storage as []E. E must match t's dtype (panics
// otherwise) — the generic accessor for code written once over both element
// types.
func DataOf[E Elem](t *Tensor) []E {
	if dtypeOf[E]() == F32 {
		if t.dtype != F32 {
			panic("tensor: DataOf[float32] on f64 tensor")
		}
		return any(t.data32).([]E)
	}
	if t.dtype != F64 {
		panic("tensor: DataOf[float64] on f32 tensor")
	}
	return any(t.Data).([]E)
}

// checkSameDType panics unless every non-nil tensor has dtype dt (nil stands
// for an absent operand, such as a missing bias). Mixed-dtype kernel
// invocations are always a bug; failing loudly here beats a silent nil-slice
// no-op.
func checkSameDType(op string, dt DType, ts ...*Tensor) {
	for _, t := range ts {
		if t != nil && t.dtype != dt {
			panic(fmt.Sprintf("tensor: %s dtype mismatch: %s operand in %s call", op, t.dtype, dt))
		}
	}
}

package nn

import "repro/internal/tensor"

// This file holds the shared context-pooling helpers used by the layers and
// stages. Contexts are pooled only in pooled mode (ar != nil): with a nil
// arena the layers allocate fresh contexts and never touch the free lists,
// so the unpooled path matches the pre-arena behavior exactly.

// pop removes and returns the last element of a free list, clearing the
// vacated slot so the list never retains stale references. It reports false
// when unpooled (ar == nil) or empty — callers then allocate fresh.
func pop[E any](ar *tensor.Arena, free *[]E) (E, bool) {
	var zero E
	if ar == nil || len(*free) == 0 {
		return zero, false
	}
	l := *free
	e := l[len(l)-1]
	l[len(l)-1] = zero
	*free = l[:len(l)-1]
	return e, true
}

// popCtx pops a pooled context struct, or returns nil for callers to
// allocate one.
func popCtx[T any](ar *tensor.Arena, free *[]*T) *T {
	c, _ := pop(ar, free)
	return c
}

// popBox pops a pre-boxed context value (e.g. a []any or []int already
// converted to `any`), or returns nil. Pooling the boxed value — not the
// slice — matters: re-boxing a slice into an interface allocates on every
// conversion, which would put one allocation per stage back on the hot path.
func popBox(ar *tensor.Arena, free *[]any) any {
	b, _ := pop(ar, free)
	return b
}

// popShapeBox pops a pooled pre-boxed []int of length n (re-boxing on a
// rank change, since a boxed slice header's length is fixed at box time),
// or allocates a fresh one. Returns the box to hand out as the context and
// the slice to write the shape into.
func popShapeBox(ar *tensor.Arena, free *[]any, n int) (any, []int) {
	box := popBox(ar, free)
	if box != nil {
		if s, ok := box.([]int); ok && len(s) == n {
			return box, s
		}
	}
	s := make([]int, n)
	return s, s
}

// requireF64 rejects non-f64 activations for layers outside the f32 path
// (the experimental normalizers and weight standardization —
// DESIGN.md §15 scopes f32 to the serving/training core). Failing loudly
// here beats the silent zero output a nil Data loop would produce.
func requireF64(name string, x *tensor.Tensor) {
	if x.DType() != tensor.F64 {
		panic("nn: " + name + " is f64-only; f32 models must not include it")
	}
}

// resize returns a slice of length n, reusing s's storage when possible.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

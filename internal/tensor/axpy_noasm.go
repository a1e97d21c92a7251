//go:build !amd64.v3

package tensor

import "unsafe"

// haveAxpy is false on builds without the GOAMD64=v3 baseline: mmTileAcc
// runs its scalar loop everywhere, which is bit-identical to the vector path
// by construction (see blocked.go).
const haveAxpy = false

// axpy4x2 is never called when haveAxpy is false; this stub exists so
// blocked.go compiles on every platform. The scalar body (rather than a
// panic) keeps it honest if a future caller drops the haveAxpy guard, and is
// what TestAxpyMatchesScalar exercises on baseline builds.
func axpy4x2(c0, c1, b0, b1, b2, b3 *float32, a *[8]float32, n int) {
	c0s := unsafe.Slice(c0, n)
	c1s := unsafe.Slice(c1, n)
	b0s := unsafe.Slice(b0, n)
	b1s := unsafe.Slice(b1, n)
	b2s := unsafe.Slice(b2, n)
	b3s := unsafe.Slice(b3, n)
	for j := 0; j < n; j++ {
		s0, s1 := c0s[j], c1s[j]
		bv := b0s[j]
		s0 += a[0] * bv
		s1 += a[4] * bv
		bv = b1s[j]
		s0 += a[1] * bv
		s1 += a[5] * bv
		bv = b2s[j]
		s0 += a[2] * bv
		s1 += a[6] * bv
		bv = b3s[j]
		s0 += a[3] * bv
		s1 += a[7] * bv
		c0s[j] = s0
		c1s[j] = s1
	}
}

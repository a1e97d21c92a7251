//go:build amd64.v3

package tensor

// haveAxpy gates the AVX2 fast path in the float32 instantiation of
// mmTileAcc. It is true only on GOAMD64=v3 builds (the compiler sets the
// amd64.v3 build tag), where AVX2 is part of the architecture baseline — no
// runtime CPUID probe needed.
const haveAxpy = true

// axpy4x2 accumulates a 2-row × 4-p GEMM panel into two float32 output rows:
//
//	c0[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]
//	c1[j] += a[4]*b0[j] + a[5]*b1[j] + a[6]*b2[j] + a[7]*b3[j]
//
// for j in [0, n), with each product added in ascending p-order via separate
// VMULPS/VADDPS (no FMA), so results are bit-identical to the scalar loop in
// mmTileAcc. Requires n > 0 and n%8 == 0; callers pass the 8-aligned
// prefix of the tile width and finish the remainder in the scalar loop.
//
//go:noescape
func axpy4x2(c0, c1, b0, b1, b2, b3 *float32, a *[8]float32, n int)

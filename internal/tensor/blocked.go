package tensor

import "unsafe"

// This file holds the cache-blocked, register-unrolled tile kernels behind
// tensor.Parallel. Every kernel computes a rectangular tile of the output
// and is constrained by the determinism contract (DESIGN.md §9): each output
// element is owned by exactly one tile, and its accumulation over the
// reduction index p runs in the same ascending order as the reference
// scalar kernels in tensor.go — unrolling happens across output elements
// (rows i, columns j) and across reduction *passes*, never by reassociating
// one element's partial sums. That makes every tile bit-identical to the
// corresponding region of the reference kernel, which the property tests in
// parallel_test.go verify across shapes, dtypes and worker counts.
//
// The performance comes from two effects the reference kernels lack:
//   - 4-wide reduction passes: the output row is loaded and stored once per
//     four p values instead of once per p (4× less write traffic on dst);
//   - 2-row / 2-column output blocking: each loaded b-row (or a-row) feeds
//     two output rows (columns), halving streamed reads.
//
// The one dtype-specific piece is the axpy4x2 fast path in mmTileAcc's
// 2-row × 4-p block, taken only at float32 and only on GOAMD64=v3 builds:
// the inner column loop then runs as an AVX2 microkernel over the
// 8-wide-aligned prefix of the tile width. The microkernel vectorizes ACROSS
// output columns only — each output element still receives its four
// products in the same ascending p-order, via separate VMULPS/VADDPS (never
// FMA) matching Go's separately rounded multiply and add — so the asm path is
// bit-identical to the scalar path, and the build tag can change speed but
// never results (TestAxpyMatchesScalar enforces this on v3 builds).

// mmTile computes dst[i0:i1, j0:j1] = a·b for row-major a [m,k], b [k,n].
// The tile is zeroed first, exactly like matMulSlices' per-row clear.
func mmTile[T Elem](dst, a, b []T, k, n, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		clear(dst[i*n+j0 : i*n+j1])
	}
	mmTileAcc(dst, a, b, k, n, i0, i1, j0, j1)
}

// mmTileAcc computes dst[i0:i1, j0:j1] += a·b. Two output rows share each
// streamed b-row; four reduction steps share each dst load/store. Per
// element, the p-order is ascending — bit-identical to matMulSlices.
func mmTileAcc[T Elem](dst, a, b []T, k, n, i0, i1, j0, j1 int) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		arow0 := a[i*k : (i+1)*k]
		arow1 := a[(i+1)*k : (i+2)*k]
		crow0 := dst[i*n+j0 : i*n+j1]
		crow1 := dst[(i+1)*n+j0 : (i+1)*n+j1]
		p := 0
		for ; p+4 <= k; p += 4 {
			a00, a01, a02, a03 := arow0[p], arow0[p+1], arow0[p+2], arow0[p+3]
			a10, a11, a12, a13 := arow1[p], arow1[p+1], arow1[p+2], arow1[p+3]
			b0 := b[p*n+j0 : p*n+j1]
			b1 := b[(p+1)*n+j0 : (p+1)*n+j1]
			b2 := b[(p+2)*n+j0 : (p+2)*n+j1]
			b3 := b[(p+3)*n+j0 : (p+3)*n+j1]
			jj := 0
			// Both operands are constants per instantiation: the branch
			// exists only in the float32 body of a GOAMD64=v3 build.
			if haveAxpy && unsafe.Sizeof(a00) == 4 {
				if wv := len(b0) &^ 7; wv >= 8 {
					coef := [8]float32{float32(a00), float32(a01), float32(a02), float32(a03),
						float32(a10), float32(a11), float32(a12), float32(a13)}
					axpy4x2(f32At(crow0), f32At(crow1), f32At(b0), f32At(b1), f32At(b2), f32At(b3), &coef, wv)
					jj = wv
				}
			}
			for ; jj < len(b0); jj++ {
				bv := b0[jj]
				s0, s1 := crow0[jj], crow1[jj]
				s0 += a00 * bv
				s1 += a10 * bv
				bv1 := b1[jj]
				s0 += a01 * bv1
				s1 += a11 * bv1
				bv2 := b2[jj]
				s0 += a02 * bv2
				s1 += a12 * bv2
				bv3 := b3[jj]
				s0 += a03 * bv3
				s1 += a13 * bv3
				crow0[jj] = s0
				crow1[jj] = s1
			}
		}
		for ; p < k; p++ {
			av0, av1 := arow0[p], arow1[p]
			brow := b[p*n+j0 : p*n+j1]
			for jj, bv := range brow {
				crow0[jj] += av0 * bv
				crow1[jj] += av1 * bv
			}
		}
	}
	for ; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := dst[i*n+j0 : i*n+j1]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			b0 := b[p*n+j0 : p*n+j1]
			b1 := b[(p+1)*n+j0 : (p+1)*n+j1]
			b2 := b[(p+2)*n+j0 : (p+2)*n+j1]
			b3 := b[(p+3)*n+j0 : (p+3)*n+j1]
			for jj, bv := range b0 {
				s := crow[jj]
				s += a0 * bv
				s += a1 * b1[jj]
				s += a2 * b2[jj]
				s += a3 * b3[jj]
				crow[jj] = s
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			brow := b[p*n+j0 : p*n+j1]
			for jj, bv := range brow {
				crow[jj] += av * bv
			}
		}
	}
}

// f32At returns &s[0] as a *float32 for the axpy4x2 call. Only reached in
// the float32 instantiation, where the conversion is an identity.
func f32At[T Elem](s []T) *float32 { return (*float32)(unsafe.Pointer(&s[0])) }

// mmTATile computes dst[i0:i1, j0:j1] = aᵀ·b for a [k,m], b [k,n],
// zeroing the tile first (matMulTransASlices clears before accumulating).
func mmTATile[T Elem](dst, a, b []T, k, m, n, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		clear(dst[i*n+j0 : i*n+j1])
	}
	mmTATileAcc(dst, a, b, k, m, n, i0, i1, j0, j1)
}

// mmTATileAcc computes dst[i0:i1, j0:j1] += aᵀ·b. The a element for output
// row i sits at column i of a's row p (stride-m access), so the reduction
// runs outermost with four rows of a and b held at once; per output element
// the p-order is ascending — bit-identical to matMulTransASlicesAcc.
func mmTATileAcc[T Elem](dst, a, b []T, k, m, n, i0, i1, j0, j1 int) {
	p := 0
	for ; p+4 <= k; p += 4 {
		a0 := a[p*m : (p+1)*m]
		a1 := a[(p+1)*m : (p+2)*m]
		a2 := a[(p+2)*m : (p+3)*m]
		a3 := a[(p+3)*m : (p+4)*m]
		b0 := b[p*n+j0 : p*n+j1]
		b1 := b[(p+1)*n+j0 : (p+1)*n+j1]
		b2 := b[(p+2)*n+j0 : (p+2)*n+j1]
		b3 := b[(p+3)*n+j0 : (p+3)*n+j1]
		for i := i0; i < i1; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			crow := dst[i*n+j0 : i*n+j1]
			for jj, bv := range b0 {
				s := crow[jj]
				s += av0 * bv
				s += av1 * b1[jj]
				s += av2 * b2[jj]
				s += av3 * b3[jj]
				crow[jj] = s
			}
		}
	}
	for ; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n+j0 : p*n+j1]
		for i := i0; i < i1; i++ {
			av := arow[i]
			crow := dst[i*n+j0 : i*n+j1]
			for jj, bv := range brow {
				crow[jj] += av * bv
			}
		}
	}
}

// mmTBTile computes dst[i0:i1, j0:j1] = a·bᵀ (or += with acc) for a [m,k],
// b [n,k]. Each output element is one dot product accumulated in a single
// register in ascending p-order — bit-identical to matMulTransBSlices — and
// two adjacent columns share each streamed a-row.
func mmTBTile[T Elem](dst, a, b []T, k, n, i0, i1, j0, j1 int, acc bool) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := dst[i*n : (i+1)*n]
		j := j0
		for ; j+2 <= j1; j += 2 {
			br0 := b[j*k : (j+1)*k]
			br1 := b[(j+1)*k : (j+2)*k]
			var s0, s1 T
			for p, av := range arow {
				s0 += av * br0[p]
				s1 += av * br1[p]
			}
			if acc {
				crow[j] += s0
				crow[j+1] += s1
			} else {
				crow[j] = s0
				crow[j+1] = s1
			}
		}
		for ; j < j1; j++ {
			brow := b[j*k : (j+1)*k]
			var s T
			for p, av := range arow {
				s += av * brow[p]
			}
			if acc {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
	}
}

// im2colRange unfolds channel ch of plane xc [h,w] into the matching column
// stripe of cols for output rows [oi0, oi1); the whole unfold is the range
// [0, oh). Padding positions must already be zero in the stripe.
func im2colRange[T Elem](cols, xc []T, ch, h, w, kh, kw, stride, pad, oh, ow, oi0, oi1 int) {
	for ki := 0; ki < kh; ki++ {
		for kj := 0; kj < kw; kj++ {
			rowBase := ((ch*kh+ki)*kw + kj) * oh * ow
			for oi := oi0; oi < oi1; oi++ {
				ii := oi*stride + ki - pad
				if ii < 0 || ii >= h {
					continue
				}
				for oj := 0; oj < ow; oj++ {
					jj := oj*stride + kj - pad
					if jj < 0 || jj >= w {
						continue
					}
					cols[rowBase+oi*ow+oj] = xc[ii*w+jj]
				}
			}
		}
	}
}

// col2imSlice folds channel ch's rows of cols back into the plane xc [h,w],
// accumulating overlapping contributions. xc must be pre-zeroed.
func col2imSlice[T Elem](xc, cols []T, ch, h, w, kh, kw, stride, pad, oh, ow int) {
	for ki := 0; ki < kh; ki++ {
		for kj := 0; kj < kw; kj++ {
			rowBase := ((ch*kh+ki)*kw + kj) * oh * ow
			for oi := 0; oi < oh; oi++ {
				ii := oi*stride + ki - pad
				if ii < 0 || ii >= h {
					continue
				}
				for oj := 0; oj < ow; oj++ {
					jj := oj*stride + kj - pad
					if jj < 0 || jj >= w {
						continue
					}
					xc[ii*w+jj] += cols[rowBase+oi*ow+oj]
				}
			}
		}
	}
}

// addRowBias adds bias[r] to columns [j0, j1) of every row r of dst, whose
// rows are width wide — the per-filter bias of a conv output block.
func addRowBias[T Elem](dst, bias []T, width, j0, j1 int) {
	for r, bv := range bias {
		row := dst[r*width+j0 : r*width+j1]
		for i := range row {
			row[i] += bv
		}
	}
}

// accRowSums adds the sum of each width-wide row of src to sums[r], summing
// in ascending order — the per-filter bias gradient of a conv backward.
func accRowSums[T Elem](sums, src []T, width int) {
	for r := range sums {
		var s T
		for _, v := range src[r*width : (r+1)*width] {
			s += v
		}
		sums[r] += s
	}
}

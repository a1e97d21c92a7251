package tensor

import "fmt"

// The allocating kernel forms below are references only this package's tests
// call; programs use the *Into and *Arena forms they wrap.

// MatMul computes c = a·b for 2-D tensors a [m,k] and b [k,n], returning
// a new [m,n] tensor.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	c := NewDT(a.dtype, a.Shape[0], b.Shape[1])
	MatMulInto(c, a, b)
	return c
}

// MatMulTransA computes c = aᵀ·b for a [k,m] and b [k,n] → [m,n].
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	c := NewDT(a.dtype, a.Shape[1], b.Shape[1])
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransB computes c = a·bᵀ for a [m,k] and b [n,k] → [m,n].
func MatMulTransB(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	c := NewDT(a.dtype, a.Shape[0], b.Shape[0])
	MatMulTransBInto(c, a, b)
	return c
}

// Reshape returns a view of t with a new shape sharing the same data.
// It panics if the element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data, data32: t.data32, dtype: t.dtype}
}

// Conv2DForward is Conv2DForwardArena without buffer reuse.
func Conv2DForward(x, w, b *Tensor, stride, pad int) (y *Tensor, cols []*Tensor) {
	return Conv2DForwardArena(nil, x, w, b, stride, pad, nil)
}

// Conv2DBackward is Conv2DBackwardArena without buffer reuse.
func Conv2DBackward(dy, w *Tensor, cols []*Tensor, dw, db *Tensor, xShape []int, stride, pad int) (dx *Tensor) {
	return Conv2DBackwardArena(nil, dy, w, cols, dw, db, xShape, stride, pad)
}

// Conv2DNaive is a direct-loop reference convolution used only by tests to
// validate the im2col implementation.
func Conv2DNaive(x, w, b *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	// Accumulation runs in float64 for both dtypes; as a test-only oracle
	// the naive path trades bit-level dtype purity for one obvious loop.
	y := NewDT(x.dtype, n, f, oh, ow)
	for s := 0; s < n; s++ {
		for ff := 0; ff < f; ff++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					sum := 0.0
					if b != nil {
						sum = b.Data[ff]
					}
					for ch := 0; ch < c; ch++ {
						for ki := 0; ki < kh; ki++ {
							ii := oi*stride + ki - pad
							if ii < 0 || ii >= h {
								continue
							}
							for kj := 0; kj < kw; kj++ {
								jj := oj*stride + kj - pad
								if jj < 0 || jj >= wd {
									continue
								}
								sum += x.At(s, ch, ii, jj) * w.At(ff, ch, ki, kj)
							}
						}
					}
					y.Set(sum, s, ff, oi, oj)
				}
			}
		}
	}
	return y
}

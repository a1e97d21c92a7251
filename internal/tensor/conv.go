package tensor

import "fmt"

// ConvOut returns the output spatial size of a convolution along one axis.
// It panics when the geometry yields a non-positive size (kernel larger than
// the padded input), which would otherwise surface later as a confusing
// tensor.New panic.
func ConvOut(in, kernel, stride, pad int) int {
	out := (in+2*pad-kernel)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: ConvOut(in=%d, kernel=%d, stride=%d, pad=%d) = %d; kernel exceeds padded input",
			in, kernel, stride, pad, out))
	}
	return out
}

// Im2ColInto unfolds x [C, H, W] into dst [C*KH*KW, OH*OW], fully
// overwriting dst (padding positions become zero).
func Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires [C,H,W], got %v", x.Shape))
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	checkDst("Im2ColInto", dst, c*kh*kw, oh*ow)
	if pad > 0 {
		// With padding, out-of-bounds positions keep their zeros; without,
		// im2col provably writes every element (ConvOut guarantees
		// (oh−1)·stride+kh ≤ h), so the memset would be pure waste.
		dst.Zero()
	}
	checkSameDType("Im2ColInto", dst.dtype, x)
	if dst.dtype == F32 {
		im2col(dst.data32, x.data32, c, h, w, kh, kw, stride, pad, oh, ow)
		return
	}
	im2col(dst.Data, x.Data, c, h, w, kh, kw, stride, pad, oh, ow)
}

// im2col unfolds every channel of x [c,h,w] into cols.
func im2col[T Elem](cols, x []T, c, h, w, kh, kw, stride, pad, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		im2colRange(cols, x[ch*h*w:(ch+1)*h*w], ch, h, w, kh, kw, stride, pad, oh, ow, 0, oh)
	}
}

// Im2Col unfolds x [C, H, W] into a matrix [C*KH*KW, OH*OW] so that a
// convolution becomes a matrix multiply with the [F, C*KH*KW] filter matrix.
// Out-of-bounds (padding) positions contribute zeros.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires [C,H,W], got %v", x.Shape))
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	cols := NewDT(x.dtype, c*kh*kw, oh*ow)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}

// Col2ImInto folds cols [C*KH*KW, OH*OW] back into dst [C, H, W], fully
// overwriting dst and accumulating overlapping contributions. It is the
// adjoint of Im2ColInto.
func Col2ImInto(dst, cols *Tensor, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match c=%d kh=%d kw=%d oh=%d ow=%d",
			cols.Shape, c, kh, kw, oh, ow))
	}
	if len(dst.Shape) != 3 || dst.Shape[0] != c || dst.Shape[1] != h || dst.Shape[2] != w {
		panic(fmt.Sprintf("tensor: Col2ImInto dst %v, want [%d,%d,%d]", dst.Shape, c, h, w))
	}
	checkSameDType("Col2ImInto", dst.dtype, cols)
	dst.Zero()
	if dst.dtype == F32 {
		col2im(dst.data32, cols.data32, c, h, w, kh, kw, stride, pad, oh, ow)
		return
	}
	col2im(dst.Data, cols.Data, c, h, w, kh, kw, stride, pad, oh, ow)
}

// col2im folds cols back into every channel plane of the pre-zeroed x
// [c,h,w].
func col2im[T Elem](x, cols []T, c, h, w, kh, kw, stride, pad, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		col2imSlice(x[ch*h*w:(ch+1)*h*w], cols, ch, h, w, kh, kw, stride, pad, oh, ow)
	}
}

// Col2Im folds a [C*KH*KW, OH*OW] matrix back into an image [C, H, W],
// accumulating overlapping contributions. It is the adjoint of Im2Col and is
// used to compute input gradients of a convolution.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	x := NewDT(cols.dtype, c, h, w)
	Col2ImInto(x, cols, c, h, w, kh, kw, stride, pad)
	return x
}

// Conv2DForwardArena computes a 2-D convolution (really cross-correlation,
// as in every deep-learning framework) for x [N,C,H,W], weights w [F,C,KH,KW]
// and bias b [F] (nil for no bias). It returns y [N,F,OH,OW] and the
// per-sample im2col matrices, which the backward pass reuses. Output and
// im2col buffers come from ar (nil falls back to fresh allocation); the
// caller owns them and should return the cols to the arena after the
// backward pass. colsBuf, when non-nil, is reused (via colsBuf[:0]) for the
// returned slice so steady-state callers allocate no slice header.
func Conv2DForwardArena(ar *Arena, x, w, b *Tensor, stride, pad int, colsBuf []*Tensor) (y *Tensor, cols []*Tensor) {
	if len(x.Shape) != 4 || len(w.Shape) != 4 || x.Shape[1] != w.Shape[1] {
		panic(fmt.Sprintf("tensor: Conv2DForward shapes x=%v w=%v", x.Shape, w.Shape))
	}
	checkSameDType("Conv2DForward", x.dtype, w, b)
	if x.dtype == F32 {
		return conv2DForward[float32](ar, x, w, b, stride, pad, colsBuf)
	}
	return conv2DForward[float64](ar, x, w, b, stride, pad, colsBuf)
}

func conv2DForward[T Elem](ar *Arena, x, w, b *Tensor, stride, pad int, colsBuf []*Tensor) (y *Tensor, cols []*Tensor) {
	dt := dtypeOf[T]()
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	xd, wdat := DataOf[T](x), DataOf[T](w)
	y = ar.GetDT(dt, n, f, oh, ow)
	yd := DataOf[T](y)
	cols = colsBuf[:0]
	for s := 0; s < n; s++ {
		col := ar.GetDT(dt, c*kh*kw, oh*ow)
		if pad > 0 {
			col.Zero() // see Im2ColInto: pad-0 geometry covers every element
		}
		cd := DataOf[T](col)
		im2col(cd, xd[s*c*h*wd:(s+1)*c*h*wd], c, h, wd, kh, kw, stride, pad, oh, ow)
		cols = append(cols, col)
		// y[s] = w·col as [F, OH*OW], straight into y's sample block.
		ys := yd[s*f*oh*ow : (s+1)*f*oh*ow]
		matMulSlices(ys, wdat, cd, f, c*kh*kw, oh*ow)
		if b != nil {
			addRowBias(ys, DataOf[T](b), oh*ow, 0, oh*ow)
		}
	}
	return y, cols
}

// Conv2DBackwardArena computes gradients of a convolution. dy is
// [N,F,OH,OW]; cols are the im2col matrices from the forward pass. It
// returns dx (allocated from ar) and accumulates into dw [F,C,KH,KW] and
// db [F] (db may be nil). Scratch buffers are drawn from and returned to ar.
// The caller keeps ownership of dy and cols.
func Conv2DBackwardArena(ar *Arena, dy, w *Tensor, cols []*Tensor, dw, db *Tensor, xShape []int, stride, pad int) (dx *Tensor) {
	checkSameDType("Conv2DBackward", dy.dtype, w, dw, db)
	if dy.dtype == F32 {
		return conv2DBackward[float32](ar, dy, w, cols, dw, db, xShape, stride, pad)
	}
	return conv2DBackward[float64](ar, dy, w, cols, dw, db, xShape, stride, pad)
}

func conv2DBackward[T Elem](ar *Arena, dy, w *Tensor, cols []*Tensor, dw, db *Tensor, xShape []int, stride, pad int) (dx *Tensor) {
	dt := dtypeOf[T]()
	n, c, h, wd := xShape[0], xShape[1], xShape[2], xShape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	fan := c * kh * kw
	dyd, wdat, dwd := DataOf[T](dy), DataOf[T](w), DataOf[T](dw)
	dx = ar.GetDT(dt, n, c, h, wd)
	dcols := ar.GetDT(dt, fan, oh*ow) // wᵀ·dy of one sample
	dxd, dcd := DataOf[T](dx), DataOf[T](dcols)
	for s := 0; s < n; s++ {
		dys := dyd[s*f*oh*ow : (s+1)*f*oh*ow]
		// dW += dy · colsᵀ, accumulated dot-by-dot straight into dw
		// (bit-identical to a scratch product followed by an add).
		matMulTransBSlicesAcc(dwd, dys, DataOf[T](cols[s]), f, oh*ow, fan)
		if db != nil {
			accRowSums(DataOf[T](db), dys, oh*ow)
		}
		// dcols = wᵀ · dy, then fold back to image space.
		matMulTransASlices(dcd, wdat, dys, f, fan, oh*ow)
		dxs := dxd[s*c*h*wd : (s+1)*c*h*wd]
		clear(dxs)
		col2im(dxs, dcd, c, h, wd, kh, kw, stride, pad, oh, ow)
	}
	ar.Put(dcols)
	return dx
}

package tensor

import "fmt"

// check4D validates an [N,C,H,W] input for the pooling kernels.
func check4D(op string, x *Tensor) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: %s requires [N,C,H,W], got %v", op, x.Shape))
	}
}

// MaxPool2DForwardInto applies kxk max pooling with the given stride to
// x [N,C,H,W], writing the pooled output into y [N,C,OH,OW] (fully
// overwritten) and the flat argmax index of the winning input element for
// every output element into argmax (len must equal y.Size()).
func MaxPool2DForwardInto(y *Tensor, argmax []int, x *Tensor, k, stride int) {
	check4D("MaxPool2D", x)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != c || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPool2DForwardInto dst %v, want [%d,%d,%d,%d]", y.Shape, n, c, oh, ow))
	}
	if len(argmax) != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: MaxPool2DForwardInto argmax len %d, want %d", len(argmax), n*c*oh*ow))
	}
	checkSameDType("MaxPool2DForwardInto", y.dtype, x)
	if y.dtype == F32 {
		maxPool(y.data32, argmax, x.data32, n*c, h, w, k, stride, oh, ow)
		return
	}
	maxPool(y.Data, argmax, x.Data, n*c, h, w, k, stride, oh, ow)
}

// maxPool pools each of the planes [h,w] of x into y, recording the flat
// index of every winner (the first maximum in scan order).
func maxPool[T Elem](y []T, argmax []int, x []T, planes, h, w, k, stride, oh, ow int) {
	oi := 0
	for pl := 0; pl < planes; pl++ {
		base := pl * h * w
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				best := -1
				var bv T
				for ki := 0; ki < k; ki++ {
					for kj := 0; kj < k; kj++ {
						ii, jj := i*stride+ki, j*stride+kj
						if ii >= h || jj >= w {
							continue
						}
						idx := base + ii*w + jj
						if best == -1 || x[idx] > bv {
							best, bv = idx, x[idx]
						}
					}
				}
				y[oi] = bv
				argmax[oi] = best
				oi++
			}
		}
	}
}

// MaxPool2DForward applies kxk max pooling with the given stride to
// x [N,C,H,W]. It returns the pooled output and the flat argmax index of the
// winning input element for every output element (used by the backward pass).
func MaxPool2DForward(x *Tensor, k, stride int) (y *Tensor, argmax []int) {
	check4D("MaxPool2D", x)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	y = NewDT(x.dtype, n, c, oh, ow)
	argmax = make([]int, n*c*oh*ow)
	MaxPool2DForwardInto(y, argmax, x, k, stride)
	return y, argmax
}

// MaxPool2DBackwardInto routes dy back to the argmax positions recorded by
// the forward pass, fully overwriting dx (which has the input shape).
func MaxPool2DBackwardInto(dx, dy *Tensor, argmax []int) {
	if dy.Size() != len(argmax) {
		panic(fmt.Sprintf("tensor: MaxPool2DBackwardInto dy size %d, argmax len %d", dy.Size(), len(argmax)))
	}
	checkSameDType("MaxPool2DBackwardInto", dx.dtype, dy)
	dx.Zero()
	if dx.dtype == F32 {
		scatterAdd(dx.data32, dy.data32, argmax)
		return
	}
	scatterAdd(dx.Data, dy.Data, argmax)
}

// scatterAdd adds src[i] into dst[idx[i]] for every i.
func scatterAdd[T Elem](dst, src []T, idx []int) {
	for i, j := range idx {
		dst[j] += src[i]
	}
}

// MaxPool2DBackward routes dy back to the argmax positions recorded by the
// forward pass, producing dx with the given input shape.
func MaxPool2DBackward(dy *Tensor, argmax []int, xShape []int) *Tensor {
	dx := NewDT(dy.dtype, xShape...)
	MaxPool2DBackwardInto(dx, dy, argmax)
	return dx
}

// GlobalAvgPoolForwardInto reduces x [N,C,H,W] into y [N,C] by spatial
// averaging, fully overwriting y.
func GlobalAvgPoolForwardInto(y, x *Tensor) {
	check4D("GlobalAvgPool", x)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	checkDst("GlobalAvgPoolForwardInto", y, n, c)
	checkSameDType("GlobalAvgPoolForwardInto", y.dtype, x)
	if y.dtype == F32 {
		planeMeans(y.data32, x.data32, h*w)
		return
	}
	planeMeans(y.Data, x.Data, h*w)
}

// planeMeans writes the mean of each hw-element plane of x into y: the sum
// runs in T in scan order, then one divide per plane.
func planeMeans[T Elem](y, x []T, hw int) {
	for pl := range y {
		var sum T
		for _, v := range x[pl*hw : (pl+1)*hw] {
			sum += v
		}
		y[pl] = sum / T(hw)
	}
}

// GlobalAvgPoolForward reduces x [N,C,H,W] to [N,C] by spatial averaging.
func GlobalAvgPoolForward(x *Tensor) *Tensor {
	check4D("GlobalAvgPool", x)
	y := NewDT(x.dtype, x.Shape[0], x.Shape[1])
	GlobalAvgPoolForwardInto(y, x)
	return y
}

// GlobalAvgPoolBackwardInto spreads dy [N,C] uniformly over the spatial
// positions of dx [N,C,H,W], fully overwriting dx.
func GlobalAvgPoolBackwardInto(dx, dy *Tensor) {
	check4D("GlobalAvgPool dx", dx)
	n, c, h, w := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	if dy.Size() != n*c {
		panic(fmt.Sprintf("tensor: GlobalAvgPoolBackwardInto dy %v, want %d elements for dx %v", dy.Shape, n*c, dx.Shape))
	}
	checkSameDType("GlobalAvgPoolBackwardInto", dx.dtype, dy)
	if dx.dtype == F32 {
		spreadMeans(dx.data32, dy.data32, h*w)
		return
	}
	spreadMeans(dx.Data, dy.Data, h*w)
}

// spreadMeans is the adjoint of planeMeans: every element of plane pl of dx
// becomes dy[pl]/hw.
func spreadMeans[T Elem](dx, dy []T, hw int) {
	for pl, d := range dy {
		fill(dx[pl*hw:(pl+1)*hw], d/T(hw))
	}
}

// GlobalAvgPoolBackward spreads dy [N,C] uniformly over the spatial positions
// of the input shape [N,C,H,W].
func GlobalAvgPoolBackward(dy *Tensor, xShape []int) *Tensor {
	dx := NewDT(dy.dtype, xShape...)
	GlobalAvgPoolBackwardInto(dx, dy)
	return dx
}

// checkAvgPool validates the non-overlapping pooling geometry: silently
// dropping remainder rows/columns would make the backward pass lose
// gradient, so indivisible sizes are an error.
func checkAvgPool(op string, h, w, k int) {
	if k <= 0 || h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("tensor: %s input %dx%d not divisible by pool size %d", op, h, w, k))
	}
}

// AvgPool2DForwardInto applies kxk average pooling with stride k
// (non-overlapping) to x [N,C,H,W], fully overwriting y [N,C,H/k,W/k].
// H and W must be divisible by k.
func AvgPool2DForwardInto(y, x *Tensor, k int) {
	check4D("AvgPool2D", x)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	checkAvgPool("AvgPool2DForward", h, w, k)
	oh, ow := h/k, w/k
	if len(y.Shape) != 4 || y.Shape[0] != n || y.Shape[1] != c || y.Shape[2] != oh || y.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: AvgPool2DForwardInto dst %v, want [%d,%d,%d,%d]", y.Shape, n, c, oh, ow))
	}
	checkSameDType("AvgPool2DForwardInto", y.dtype, x)
	if y.dtype == F32 {
		avgPool(y.data32, x.data32, n*c, h, w, k)
		return
	}
	avgPool(y.Data, x.Data, n*c, h, w, k)
}

// avgPool averages the non-overlapping k×k windows of each plane [h,w] of
// x into y.
func avgPool[T Elem](y, x []T, planes, h, w, k int) {
	oh, ow := h/k, w/k
	kk := T(k * k)
	for pl := 0; pl < planes; pl++ {
		base, obase := pl*h*w, pl*oh*ow
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				var sum T
				for ki := 0; ki < k; ki++ {
					for kj := 0; kj < k; kj++ {
						sum += x[base+(i*k+ki)*w+(j*k+kj)]
					}
				}
				y[obase+i*ow+j] = sum / kk
			}
		}
	}
}

// AvgPool2DForward applies kxk average pooling with stride k (non-overlapping)
// to x [N,C,H,W]. Used by the parameter-free ResNet shortcut downsampling.
// H and W must be divisible by k.
func AvgPool2DForward(x *Tensor, k int) *Tensor {
	check4D("AvgPool2D", x)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	checkAvgPool("AvgPool2DForward", h, w, k)
	y := NewDT(x.dtype, n, c, h/k, w/k)
	AvgPool2DForwardInto(y, x, k)
	return y
}

// AvgPool2DBackwardInto is the adjoint of AvgPool2DForwardInto, fully
// overwriting dx (which has the input shape [N,C,H,W]).
func AvgPool2DBackwardInto(dx, dy *Tensor, k int) {
	check4D("AvgPool2D dx", dx)
	n, c, h, w := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	checkAvgPool("AvgPool2DBackward", h, w, k)
	oh, ow := h/k, w/k
	if dy.Size() != n*c*oh*ow {
		panic(fmt.Sprintf("tensor: AvgPool2DBackwardInto dy %v, want %d elements for dx %v pool %d", dy.Shape, n*c*oh*ow, dx.Shape, k))
	}
	checkSameDType("AvgPool2DBackwardInto", dx.dtype, dy)
	if dx.dtype == F32 {
		avgPoolGrad(dx.data32, dy.data32, n*c, h, w, k)
		return
	}
	avgPoolGrad(dx.Data, dy.Data, n*c, h, w, k)
}

// avgPoolGrad is the adjoint of avgPool: each window of dx becomes its
// output gradient divided by k².
func avgPoolGrad[T Elem](dx, dy []T, planes, h, w, k int) {
	oh, ow := h/k, w/k
	kk := T(k * k)
	for pl := 0; pl < planes; pl++ {
		base, obase := pl*h*w, pl*oh*ow
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				g := dy[obase+i*ow+j] / kk
				for ki := 0; ki < k; ki++ {
					for kj := 0; kj < k; kj++ {
						dx[base+(i*k+ki)*w+(j*k+kj)] = g
					}
				}
			}
		}
	}
}

// AvgPool2DBackward is the adjoint of AvgPool2DForward.
func AvgPool2DBackward(dy *Tensor, xShape []int, k int) *Tensor {
	dx := NewDT(dy.dtype, xShape...)
	AvgPool2DBackwardInto(dx, dy, k)
	return dx
}

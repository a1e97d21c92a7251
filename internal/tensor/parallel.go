package tensor

import (
	"fmt"
	"sync"
)

// Parallel is a reusable group of intra-kernel workers: a fixed set of
// pre-spawned goroutines that split one compute kernel (GEMM, im2col,
// fused conv) by output tiles. It is the CPU analogue of the per-stage
// compute resources the paper's hardware model gives each pipeline worker:
// the pipelined-backpropagation engines hand every stage a *Parallel
// alongside its *Arena, splitting the engine's worker budget between
// pipeline-stage concurrency and intra-kernel parallelism (DESIGN.md §9).
//
// Determinism: every kernel partitions the *output* space — each output
// element is computed in full by exactly one worker, and its accumulation
// order over the reduction dimension is the same ascending order the
// reference scalar kernels use. The result is therefore bit-identical to
// the reference kernels at any worker count, including nil.
//
// A nil *Parallel is valid everywhere and runs the same blocked kernels
// serially on the caller. Dispatch allocates nothing in steady state
// (pre-spawned workers, per-worker signal channels, one shared job slot),
// so the allocation-free hot path of the engines is preserved.
//
// A Parallel is owned by one driving goroutine at a time: Run-style kernel
// calls and Close must not race with each other. Kernel calls made after
// Close fall back to serial execution.
type Parallel struct {
	n      int             // total workers, including the calling goroutine
	start  []chan struct{} // one signal channel per spawned worker
	quit   chan struct{}
	wg     sync.WaitGroup // per-dispatch completion
	exitWg sync.WaitGroup // worker shutdown, for leak-free Close
	closed bool
	job    job // shared job slot, written by the caller before each dispatch
}

// parGrainFLOPs is the minimum estimated multiply-accumulate count before a
// kernel fans out to the worker group; below it the dispatch overhead
// (wakeup + join) outweighs the win and the caller runs the kernel serially.
// The cutover never changes results — only which goroutines compute them.
// Tests shrink it to force tiny shapes through the parallel path.
var parGrainFLOPs = 16 * 1024

// NewParallel returns a worker group of the given total size (including the
// calling goroutine), or nil — the valid serial group — when workers ≤ 1.
// Callers must Close a non-nil group to release its goroutines.
func NewParallel(workers int) *Parallel {
	if workers <= 1 {
		return nil
	}
	p := &Parallel{
		n:     workers,
		start: make([]chan struct{}, workers-1),
		quit:  make(chan struct{}),
	}
	for i := range p.start {
		p.start[i] = make(chan struct{})
		p.exitWg.Add(1)
		go p.worker(i + 1)
	}
	return p
}

// Workers reports the group's total worker count (1 for nil).
func (p *Parallel) Workers() int {
	if p == nil {
		return 1
	}
	return p.n
}

// Close releases the worker goroutines and waits for them to exit.
// Idempotent; later kernel calls run serially. nil-safe.
func (p *Parallel) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.quit)
	p.exitWg.Wait()
}

// worker is the loop of spawned worker id (1..n−1; the caller is worker 0).
// The signal-channel receive orders the job write before the read, and
// wg.Done orders the tile writes before the caller's Wait returns.
func (p *Parallel) worker(id int) {
	defer p.exitWg.Done()
	for {
		select {
		case <-p.start[id-1]:
			lo, hi := unitRange(p.job.units, p.n, id)
			runJob(&p.job, lo, hi)
			p.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// unitRange is the static partition: worker idx of workers gets units
// [lo, hi). Contiguous chunks keep each worker's tile writes sequential.
func unitRange(units, workers, idx int) (lo, hi int) {
	return idx * units / workers, (idx + 1) * units / workers
}

// run executes one kernel job, fanning out to the worker group when the
// estimated work clears the grain threshold. The caller participates as
// worker 0, so a dispatch keeps all n workers busy.
func (p *Parallel) run(work int, j job) {
	if p == nil || p.closed || j.units <= 1 || work < parGrainFLOPs {
		runJob(&j, 0, j.units)
		return
	}
	p.job = j
	p.wg.Add(p.n - 1)
	for _, c := range p.start {
		c <- struct{}{}
	}
	_, hi := unitRange(j.units, p.n, 0)
	runJob(&p.job, 0, hi)
	p.wg.Wait()
}

// jobKind selects the tile kernel a dispatch runs.
type jobKind uint8

const (
	jobMM      jobKind = iota // dst = a·b
	jobMMTA                   // dst = aᵀ·b
	jobMMTAAcc                // dst += aᵀ·b
	jobMMTB                   // dst = a·bᵀ
	jobMMTBAcc                // dst += a·bᵀ
	jobIm2Col                 // unfold src into dst, split by channel
	jobCol2Im                 // fold a into dst, split by channel
	jobConvFwd                // fused im2col + GEMM + bias, split by output row
)

// job is the shared kernel descriptor read by every worker of a dispatch.
// units is the size of the partition space (rows, columns, channels or
// output rows depending on kind); splitCols flips GEMM partitioning to the
// column axis, which keeps single-row products (the batch-size-one dense
// layers) parallel.
type job struct {
	kind      jobKind
	units     int
	splitCols bool
	m, k, n   int
	// Convolution geometry (im2col/col2im/fused kinds).
	c, h, w, kh, kw, stride, pad, oh, ow int
	// f32 selects the operand group the dispatch reads; exactly one of o64
	// and o32 is populated.
	f32 bool
	o64 operands[float64]
	o32 operands[float32]
}

// operands are a job's slice operands at one dtype.
type operands[T Elem] struct {
	dst, a, b []T
	src       []T // input image plane(s)
	bias      []T // nil for no bias
}

// bind returns j with o installed as its operand group. Value argument and
// result on purpose: a pointer would make the caller's stack-local job
// escape, putting one heap allocation back on every kernel dispatch.
func bind[T Elem](j job, o operands[T]) job {
	if dtypeOf[T]() == F32 {
		j.f32, j.o32 = true, any(o).(operands[float32])
	} else {
		j.o64 = any(o).(operands[float64])
	}
	return j
}

// runJob executes units [u0, u1) of a job. It is the single dispatch point
// for both the caller (worker 0) and the spawned workers.
func runJob(j *job, u0, u1 int) {
	if u0 >= u1 {
		return
	}
	if j.f32 {
		runTiles(j, &j.o32, u0, u1)
	} else {
		runTiles(j, &j.o64, u0, u1)
	}
}

// runTiles runs units [u0, u1) of j over the operand group o.
func runTiles[T Elem](j *job, o *operands[T], u0, u1 int) {
	// GEMM tiles: output rows [i0, i1) × columns [c0, c1).
	i0, i1, c0, c1 := u0, u1, 0, j.n
	if j.splitCols {
		i0, i1, c0, c1 = 0, j.m, u0, u1
	}
	switch j.kind {
	case jobMM:
		mmTile(o.dst, o.a, o.b, j.k, j.n, i0, i1, c0, c1)
	case jobMMTA:
		mmTATile(o.dst, o.a, o.b, j.k, j.m, j.n, i0, i1, c0, c1)
	case jobMMTAAcc:
		mmTATileAcc(o.dst, o.a, o.b, j.k, j.m, j.n, i0, i1, c0, c1)
	case jobMMTB:
		mmTBTile(o.dst, o.a, o.b, j.k, j.n, i0, i1, c0, c1, false)
	case jobMMTBAcc:
		mmTBTile(o.dst, o.a, o.b, j.k, j.n, i0, i1, c0, c1, true)
	case jobIm2Col:
		for ch := u0; ch < u1; ch++ {
			if j.pad > 0 {
				base := ch * j.kh * j.kw * j.oh * j.ow
				clear(o.dst[base : base+j.kh*j.kw*j.oh*j.ow])
			}
			im2colRange(o.dst, o.src[ch*j.h*j.w:(ch+1)*j.h*j.w], ch,
				j.h, j.w, j.kh, j.kw, j.stride, j.pad, j.oh, j.ow, 0, j.oh)
		}
	case jobCol2Im:
		for ch := u0; ch < u1; ch++ {
			plane := o.dst[ch*j.h*j.w : (ch+1)*j.h*j.w]
			clear(plane)
			col2imSlice(plane, o.a, ch, j.h, j.w, j.kh, j.kw, j.stride, j.pad, j.oh, j.ow)
		}
	case jobConvFwd:
		convFwdRange(j, o, u0, u1)
	}
}

// convFwdRange is the fused conv-forward panel: for output rows [o0, o1) it
// unfolds the im2col columns, multiplies them against the filter matrix and
// adds the bias — the whole column stripe stays cache-hot between the three
// steps. Workers touch disjoint column stripes of both cols and dst.
func convFwdRange[T Elem](j *job, o *operands[T], o0, o1 int) {
	fan := j.c * j.kh * j.kw
	ohow := j.oh * j.ow
	j0, j1 := o0*j.ow, o1*j.ow
	if j.pad > 0 {
		// Padding positions keep their zeros; pad-0 geometry writes every
		// element of the stripe (see Im2ColInto).
		for r := 0; r < fan; r++ {
			clear(o.b[r*ohow+j0 : r*ohow+j1])
		}
	}
	for ch := 0; ch < j.c; ch++ {
		im2colRange(o.b, o.src[ch*j.h*j.w:(ch+1)*j.h*j.w], ch,
			j.h, j.w, j.kh, j.kw, j.stride, j.pad, j.oh, j.ow, o0, o1)
	}
	mmTile(o.dst, o.a, o.b, fan, ohow, 0, j.m, j0, j1)
	addRowBias(o.dst, o.bias, ohow, j0, j1)
}

// gemmSplitCols picks the GEMM partition axis: output rows by default,
// columns when the row count is the smaller split space. The choice affects
// only load balance, never results.
func gemmSplitCols(m, n int) bool { return n > m }

// gemm binds a GEMM job's operands at dst's dtype and runs it, split by
// output rows or, for wide products, by output columns.
func (p *Parallel) gemm(op string, j job, dst, a, b *Tensor) {
	checkSameDType(op, dst.dtype, a, b)
	if dst.dtype == F32 {
		j = bind(j, operands[float32]{dst: dst.data32, a: a.data32, b: b.data32})
	} else {
		j = bind(j, operands[float64]{dst: dst.Data, a: a.Data, b: b.Data})
	}
	j.splitCols = gemmSplitCols(j.m, j.n)
	j.units = j.m
	if j.splitCols {
		j.units = j.n
	}
	p.run(j.m*j.k*j.n, j)
}

// MatMulInto computes dst = a·b like the package-level MatMulInto, using the
// group's blocked kernel — bit-identical to the reference at any worker
// count. nil-safe (serial).
func (p *Parallel) MatMulInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDst("MatMulInto", dst, m, n)
	p.gemm("MatMulInto", job{kind: jobMM, m: m, k: k, n: n}, dst, a, b)
}

// MatMulTransAInto computes dst = aᵀ·b (a [k,m], b [k,n]) with the blocked
// kernel; bit-identical to the reference at any worker count.
func (p *Parallel) MatMulTransAInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDst("MatMulTransAInto", dst, m, n)
	p.gemm("MatMulTransAInto", job{kind: jobMMTA, m: m, k: k, n: n}, dst, a, b)
}

// MatMulTransAAccInto computes dst += aᵀ·b with the blocked kernel;
// bit-identical to the reference at any worker count.
func (p *Parallel) MatMulTransAAccInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v x %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkDst("MatMulTransAAccInto", dst, m, n)
	p.gemm("MatMulTransAAccInto", job{kind: jobMMTAAcc, m: m, k: k, n: n}, dst, a, b)
}

// MatMulTransBInto computes dst = a·bᵀ (a [m,k], b [n,k]) with the blocked
// kernel; bit-identical to the reference at any worker count.
func (p *Parallel) MatMulTransBInto(dst, a, b *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	checkDst("MatMulTransBInto", dst, m, n)
	p.gemm("MatMulTransBInto", job{kind: jobMMTB, m: m, k: k, n: n}, dst, a, b)
}

// Im2ColInto unfolds x [C,H,W] into dst [C·KH·KW, OH·OW] like the
// package-level Im2ColInto, split across channels.
func (p *Parallel) Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires [C,H,W], got %v", x.Shape))
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	checkDst("Im2ColInto", dst, c*kh*kw, oh*ow)
	checkSameDType("Im2ColInto", dst.dtype, x)
	j := job{kind: jobIm2Col, units: c,
		c: c, h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad, oh: oh, ow: ow}
	if dst.dtype == F32 {
		j = bind(j, operands[float32]{dst: dst.data32, src: x.data32})
	} else {
		j = bind(j, operands[float64]{dst: dst.Data, src: x.Data})
	}
	p.run(c*kh*kw*oh*ow, j)
}

// Col2ImInto folds cols back into dst [C,H,W] like the package-level
// Col2ImInto, split across channels.
func (p *Parallel) Col2ImInto(dst, cols *Tensor, c, h, w, kh, kw, stride, pad int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match c=%d kh=%d kw=%d oh=%d ow=%d",
			cols.Shape, c, kh, kw, oh, ow))
	}
	if len(dst.Shape) != 3 || dst.Shape[0] != c || dst.Shape[1] != h || dst.Shape[2] != w {
		panic(fmt.Sprintf("tensor: Col2ImInto dst %v, want [%d,%d,%d]", dst.Shape, c, h, w))
	}
	checkSameDType("Col2ImInto", dst.dtype, cols)
	j := job{kind: jobCol2Im, units: c,
		c: c, h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad, oh: oh, ow: ow}
	if dst.dtype == F32 {
		j = bind(j, operands[float32]{dst: dst.data32, a: cols.data32})
	} else {
		j = bind(j, operands[float64]{dst: dst.Data, a: cols.Data})
	}
	p.run(c*kh*kw*oh*ow, j)
}

// ConvForward is the fused, parallel form of Conv2DForwardArena: per sample
// it unfolds, multiplies and biases one output-row panel at a time, with
// panels split across the worker group. Buffer semantics (arena ownership,
// colsBuf reuse, returned cols) are identical to Conv2DForwardArena, and the
// results are bit-identical to it at any worker count.
func (p *Parallel) ConvForward(ar *Arena, x, w, b *Tensor, stride, pad int, colsBuf []*Tensor) (y *Tensor, cols []*Tensor) {
	if len(x.Shape) != 4 || len(w.Shape) != 4 || x.Shape[1] != w.Shape[1] {
		panic(fmt.Sprintf("tensor: Conv2DForward shapes x=%v w=%v", x.Shape, w.Shape))
	}
	checkSameDType("ConvForward", x.dtype, w, b)
	if x.dtype == F32 {
		return convForward[float32](p, ar, x, w, b, stride, pad, colsBuf)
	}
	return convForward[float64](p, ar, x, w, b, stride, pad, colsBuf)
}

func convForward[T Elem](p *Parallel, ar *Arena, x, w, b *Tensor, stride, pad int, colsBuf []*Tensor) (y *Tensor, cols []*Tensor) {
	dt := dtypeOf[T]()
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	fan := c * kh * kw
	y = ar.GetDT(dt, n, f, oh, ow)
	cols = colsBuf[:0]
	var bias []T
	if b != nil {
		bias = DataOf[T](b)
	}
	xd, wdat, yd := DataOf[T](x), DataOf[T](w), DataOf[T](y)
	for s := 0; s < n; s++ {
		col := ar.GetDT(dt, fan, oh*ow)
		cols = append(cols, col)
		p.run(f*fan*oh*ow, bind(job{kind: jobConvFwd, units: oh, m: f,
			c: c, h: h, w: wd, kh: kh, kw: kw, stride: stride, pad: pad, oh: oh, ow: ow},
			operands[T]{dst: yd[s*f*oh*ow : (s+1)*f*oh*ow], a: wdat, b: DataOf[T](col),
				src: xd[s*c*h*wd : (s+1)*c*h*wd], bias: bias}))
	}
	return y, cols
}

// ConvBackward is the parallel form of Conv2DBackwardArena: the weight
// gradient accumulates filter rows across the group, the column gradient
// splits by im2col rows, and the fold back to image space splits by channel.
// Buffer semantics and results are identical to Conv2DBackwardArena at any
// worker count.
func (p *Parallel) ConvBackward(ar *Arena, dy, w *Tensor, cols []*Tensor, dw, db *Tensor, xShape []int, stride, pad int) (dx *Tensor) {
	checkSameDType("ConvBackward", dy.dtype, w, dw, db)
	if dy.dtype == F32 {
		return convBackward[float32](p, ar, dy, w, cols, dw, db, xShape, stride, pad)
	}
	return convBackward[float64](p, ar, dy, w, cols, dw, db, xShape, stride, pad)
}

func convBackward[T Elem](p *Parallel, ar *Arena, dy, w *Tensor, cols []*Tensor, dw, db *Tensor, xShape []int, stride, pad int) (dx *Tensor) {
	dt := dtypeOf[T]()
	n, c, h, wd := xShape[0], xShape[1], xShape[2], xShape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	fan := c * kh * kw
	ohow := oh * ow
	dx = ar.GetDT(dt, n, c, h, wd)
	dcols := ar.GetDT(dt, fan, ohow)
	dyd, wdat, dwd := DataOf[T](dy), DataOf[T](w), DataOf[T](dw)
	dxd, dcd := DataOf[T](dx), DataOf[T](dcols)
	for s := 0; s < n; s++ {
		dys := dyd[s*f*ohow : (s+1)*f*ohow]
		// dW += dy · colsᵀ, one filter row per unit (accumulation order per
		// element matches matMulTransBSlicesAcc).
		p.run(f*ohow*fan, bind(job{kind: jobMMTBAcc, units: f, m: f, k: ohow, n: fan},
			operands[T]{dst: dwd, a: dys, b: DataOf[T](cols[s])}))
		if db != nil {
			accRowSums(DataOf[T](db), dys, ohow)
		}
		// dcols = wᵀ · dy, split by im2col row.
		p.run(f*fan*ohow, bind(job{kind: jobMMTA, units: fan, m: fan, k: f, n: ohow},
			operands[T]{dst: dcd, a: wdat, b: dys}))
		// Fold back to image space, one channel plane per unit (each worker
		// zeroes its own planes).
		p.run(fan*ohow, bind(job{kind: jobCol2Im, units: c,
			c: c, h: h, w: wd, kh: kh, kw: kw, stride: stride, pad: pad, oh: oh, ow: ow},
			operands[T]{dst: dxd[s*c*h*wd : (s+1)*c*h*wd], a: dcd}))
	}
	ar.Put(dcols)
	return dx
}

package tensor

import (
	"math/rand"
	"testing"
)

func benchTensors(m, k, n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(m, k), New(k, n)
	Normal(a, 1, rng)
	Normal(b, 1, rng)
	return a, b
}

func BenchmarkMatMul64(b *testing.B) {
	x, y := benchTensors(64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulTransB64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := New(64, 64), New(64, 64)
	Normal(x, 1, rng)
	Normal(y, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransB(x, y)
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(1, 8, 12, 12)
	w := New(8, 8, 3, 3)
	bias := New(8)
	Normal(x, 1, rng)
	Normal(w, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Conv2DForward(x, w, bias, 1, 1)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := New(1, 8, 12, 12)
	w := New(8, 8, 3, 3)
	Normal(x, 1, rng)
	Normal(w, 1, rng)
	y, cols := Conv2DForward(x, w, nil, 1, 1)
	dy := New(y.Shape...)
	Normal(dy, 1, rng)
	dw := New(w.Shape...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dw.Zero()
		Conv2DBackward(dy, w, cols, dw, nil, x.Shape, 1, 1)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := New(8, 12, 12)
	Normal(x, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Im2Col(x, 3, 3, 1, 1)
	}
}

func BenchmarkMaxPool(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := New(1, 8, 12, 12)
	Normal(x, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxPool2DForward(x, 2, 2)
	}
}

func BenchmarkMatMulBlocked64(b *testing.B) {
	x, y := benchTensors(64, 64, 64)
	dst := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		(*Parallel)(nil).MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulBlocked64Workers2(b *testing.B) {
	x, y := benchTensors(64, 64, 64)
	dst := New(64, 64)
	p := NewParallel(2)
	defer p.Close()
	old := parGrainFLOPs
	parGrainFLOPs = 0 // force fan-out even at GOMAXPROCS=1
	defer func() { parGrainFLOPs = old }()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.MatMulInto(dst, x, y)
	}
}

func BenchmarkConvFusedForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := New(1, 8, 12, 12)
	w := New(8, 8, 3, 3)
	Normal(x, 1, rng)
	Normal(w, 1, rng)
	ar := NewArena()
	dw := New(8, 8, 3, 3)
	var p *Parallel // serial blocked path
	// Carry the cols slice across iterations: a nil colsBuf makes ConvForward
	// grow a fresh 1-element slice every pass — the stray 1 alloc/op the
	// kernel bench rows used to show.
	var colsBuf []*Tensor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		y, cols := p.ConvForward(ar, x, w, nil, 1, 1, colsBuf)
		dx := p.ConvBackward(ar, y, w, cols, dw, nil, x.Shape, 1, 1)
		ar.Put(y, dx)
		ar.Put(cols...)
		colsBuf = cols
	}
}

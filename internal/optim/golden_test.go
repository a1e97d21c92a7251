package optim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file pins the exact output bits of every kernel family across
// commits. The equivalence suites prove blocked ≡ reference and pooled ≡
// unpooled, but once both sides are instantiations of one generic source
// they cannot show that the source itself did not move; these constants can.
// It lives in optim because optim is the lowest package that imports all of
// tensor, nn and the optimizer it hashes.

// golden is one named FNV-64a hash over the raw bits of a fixed-seed output.
type golden struct {
	name string
	hash uint64
}

// goldenWant holds the recorded hashes per dtype. A deliberate numerical
// change must re-record them (the failure message prints the new table).
var goldenWant = map[tensor.DType][]golden{
	tensor.F64: {
		{"MatMulInto", 0x64f701fb617eb3e6},
		{"MatMulTransAInto", 0x6a0adc03aac5b1c3},
		{"MatMulTransAAccInto", 0x53d409723fdcf41c},
		{"MatMulTransBInto", 0xba76fb265d36637d},
		{"Parallel.MatMulInto/workers=1", 0x64f701fb617eb3e6},
		{"Parallel.MatMulTransAInto/workers=1", 0x6a0adc03aac5b1c3},
		{"Parallel.MatMulTransAAccInto/workers=1", 0x53d409723fdcf41c},
		{"Parallel.MatMulTransBInto/workers=1", 0xba76fb265d36637d},
		{"Parallel.MatMulInto/workers=3", 0x64f701fb617eb3e6},
		{"Parallel.MatMulTransAInto/workers=3", 0x6a0adc03aac5b1c3},
		{"Parallel.MatMulTransAAccInto/workers=3", 0x53d409723fdcf41c},
		{"Parallel.MatMulTransBInto/workers=3", 0xba76fb265d36637d},
		{"Conv2DForwardArena/c4h12f6k3s1p1", 0x54e00e4acda89ca6},
		{"Conv2DBackwardArena/c4h12f6k3s1p1", 0x8e9747efeccc4fe5},
		{"Parallel.ConvForward/c4h12f6k3s1p1/workers=1", 0x54e00e4acda89ca6},
		{"Parallel.ConvBackward/c4h12f6k3s1p1/workers=1", 0x8e9747efeccc4fe5},
		{"Parallel.ConvForward/c4h12f6k3s1p1/workers=3", 0x54e00e4acda89ca6},
		{"Parallel.ConvBackward/c4h12f6k3s1p1/workers=3", 0x8e9747efeccc4fe5},
		{"Im2Col/c4h12f6k3s1p1", 0x5da76113ced6efe3},
		{"Col2Im/c4h12f6k3s1p1", 0x6c0d4c5002c113b4},
		{"Parallel.Im2ColInto+Col2ImInto/c4h12f6k3s1p1/workers=1", 0x6a3afa4e8eb2b59e},
		{"Parallel.Im2ColInto+Col2ImInto/c4h12f6k3s1p1/workers=3", 0x6a3afa4e8eb2b59e},
		{"Conv2DForwardArena/c3h9f5k3s2p0", 0xf16c3efbcd462282},
		{"Conv2DBackwardArena/c3h9f5k3s2p0", 0x1e4df11550fea64e},
		{"Parallel.ConvForward/c3h9f5k3s2p0/workers=1", 0xf16c3efbcd462282},
		{"Parallel.ConvBackward/c3h9f5k3s2p0/workers=1", 0x1e4df11550fea64e},
		{"Parallel.ConvForward/c3h9f5k3s2p0/workers=3", 0xf16c3efbcd462282},
		{"Parallel.ConvBackward/c3h9f5k3s2p0/workers=3", 0x1e4df11550fea64e},
		{"Im2Col/c3h9f5k3s2p0", 0x75eb501fa6ca7de9},
		{"Col2Im/c3h9f5k3s2p0", 0x9333d75a126c79d0},
		{"Parallel.Im2ColInto+Col2ImInto/c3h9f5k3s2p0/workers=1", 0xf19c42e6fb168d64},
		{"Parallel.Im2ColInto+Col2ImInto/c3h9f5k3s2p0/workers=3", 0xf19c42e6fb168d64},
		{"MaxPool2DForward", 0xff6d3e3837f14871},
		{"MaxPool2DBackward", 0x31adc4b90dea2e4f},
		{"AvgPool2DForward", 0x7377caf55aeb3c00},
		{"AvgPool2DBackward", 0x7d30caddde7e3395},
		{"GlobalAvgPoolForward", 0x5178fc41b0ca74e5},
		{"GlobalAvgPoolBackward", 0xe0316bca8ab69a25},
		{"Add", 0xe923817775e047b1},
		{"Sub", 0xd274ac51dc748de1},
		{"AddScaled", 0xb3843c9369c7c637},
		{"Scale", 0x19b18378191f8f78},
		{"Hadamard", 0x494a390f64a26e61},
		{"Transpose", 0xb7254b5a7cf848a5},
		{"Sum/MaxAbs/Norm2/ArgMaxRow", 0x2423a8e4d6269701},
		{"GroupNorm.Forward", 0xc6b3003f5c669040},
		{"GroupNorm.Backward", 0x4bce2e171583fd91},
		{"LayerNorm.Forward", 0x2ac2311a01815303},
		{"LayerNorm.Backward", 0x94a9613f27225301},
		{"Dense.Forward", 0x3f516f41d4147d25},
		{"Dense.Backward", 0x1943fe8aaf776584},
		{"ReLU", 0x712897bc74c9d9f7},
		{"DownsampleShortcut", 0x4876af4df5470932},
		{"AddSkip", 0x7207c36159b81d05},
		{"SoftmaxCrossEntropy.loss", 0xc020f6c5c3c0b841},
		{"SoftmaxCrossEntropy.grad", 0x224806e9df72057b},
		{"Momentum.Step", 0xa1155f9b48928e84},
		{"Momentum.Step/velocity", 0x462ff8192ab65958},
	},
	tensor.F32: {
		{"MatMulInto", 0x2a1e84366a702d9d},
		{"MatMulTransAInto", 0x49f4dce584d2e4c8},
		{"MatMulTransAAccInto", 0x2948eac77a1f2fef},
		{"MatMulTransBInto", 0x8a22cbd09b73e251},
		{"Parallel.MatMulInto/workers=1", 0x2a1e84366a702d9d},
		{"Parallel.MatMulTransAInto/workers=1", 0x49f4dce584d2e4c8},
		{"Parallel.MatMulTransAAccInto/workers=1", 0x2948eac77a1f2fef},
		{"Parallel.MatMulTransBInto/workers=1", 0x8a22cbd09b73e251},
		{"Parallel.MatMulInto/workers=3", 0x2a1e84366a702d9d},
		{"Parallel.MatMulTransAInto/workers=3", 0x49f4dce584d2e4c8},
		{"Parallel.MatMulTransAAccInto/workers=3", 0x2948eac77a1f2fef},
		{"Parallel.MatMulTransBInto/workers=3", 0x8a22cbd09b73e251},
		{"Conv2DForwardArena/c4h12f6k3s1p1", 0x7843906068a20ae0},
		{"Conv2DBackwardArena/c4h12f6k3s1p1", 0xd95e98c789605c6f},
		{"Parallel.ConvForward/c4h12f6k3s1p1/workers=1", 0x7843906068a20ae0},
		{"Parallel.ConvBackward/c4h12f6k3s1p1/workers=1", 0xd95e98c789605c6f},
		{"Parallel.ConvForward/c4h12f6k3s1p1/workers=3", 0x7843906068a20ae0},
		{"Parallel.ConvBackward/c4h12f6k3s1p1/workers=3", 0xd95e98c789605c6f},
		{"Im2Col/c4h12f6k3s1p1", 0x8d2638b1d5b335a5},
		{"Col2Im/c4h12f6k3s1p1", 0x4b721a75884bdff5},
		{"Parallel.Im2ColInto+Col2ImInto/c4h12f6k3s1p1/workers=1", 0x9a995389089f9d75},
		{"Parallel.Im2ColInto+Col2ImInto/c4h12f6k3s1p1/workers=3", 0x9a995389089f9d75},
		{"Conv2DForwardArena/c3h9f5k3s2p0", 0x578f749d637a31a8},
		{"Conv2DBackwardArena/c3h9f5k3s2p0", 0xeae2c8ee93d5da0e},
		{"Parallel.ConvForward/c3h9f5k3s2p0/workers=1", 0x578f749d637a31a8},
		{"Parallel.ConvBackward/c3h9f5k3s2p0/workers=1", 0xeae2c8ee93d5da0e},
		{"Parallel.ConvForward/c3h9f5k3s2p0/workers=3", 0x578f749d637a31a8},
		{"Parallel.ConvBackward/c3h9f5k3s2p0/workers=3", 0xeae2c8ee93d5da0e},
		{"Im2Col/c3h9f5k3s2p0", 0x01ab4b18ad1d9cf0},
		{"Col2Im/c3h9f5k3s2p0", 0x49b64fe3d937e1e7},
		{"Parallel.Im2ColInto+Col2ImInto/c3h9f5k3s2p0/workers=1", 0x92b42bb9a40e2a36},
		{"Parallel.Im2ColInto+Col2ImInto/c3h9f5k3s2p0/workers=3", 0x92b42bb9a40e2a36},
		{"MaxPool2DForward", 0xd00094ab906c4eff},
		{"MaxPool2DBackward", 0xbe3067f59ccce319},
		{"AvgPool2DForward", 0x9520d10982201955},
		{"AvgPool2DBackward", 0x0dc3d5358ea71735},
		{"GlobalAvgPoolForward", 0x1d508c411b70bc6a},
		{"GlobalAvgPoolBackward", 0x51ce82ac53ef68a5},
		{"Add", 0x03006a7cc2368929},
		{"Sub", 0x923424d40d701d51},
		{"AddScaled", 0x20eb8023a780e477},
		{"Scale", 0x51de0a9deb43478a},
		{"Hadamard", 0x4509d1ecc86ef885},
		{"Transpose", 0xb00f7a108b1cdaf5},
		{"Sum/MaxAbs/Norm2/ArgMaxRow", 0xdc7a7bea09e44208},
		{"GroupNorm.Forward", 0xd27fd3e45967d755},
		{"GroupNorm.Backward", 0x8415f99c4021defb},
		{"LayerNorm.Forward", 0x9f2051ead100e04a},
		{"LayerNorm.Backward", 0x70aab03f940d1c62},
		{"Dense.Forward", 0xf5f5ab39b835256b},
		{"Dense.Backward", 0x6f4256d3281234ee},
		{"ReLU", 0x4bb2e35836f9e39f},
		{"DownsampleShortcut", 0x008cb1d7b00846e0},
		{"AddSkip", 0xe4eb469674de6952},
		{"SoftmaxCrossEntropy.loss", 0xd8213c2fda1f823d},
		{"SoftmaxCrossEntropy.grad", 0xa5b55375aad3feb4},
		{"Momentum.Step", 0xc303a858a2fb6840},
		{"Momentum.Step/velocity", 0xbf42048ad967d95e},
	},
}

// TestKernelGoldenHashes recomputes every pinned output at both dtypes and
// compares it bit for bit with the recorded hashes. The same constants hold
// on default and GOAMD64=v3 builds: the AVX2 microkernel is bit-identical
// to the scalar loop, and the amd64 compiler never fuses a multiply-add.
func TestKernelGoldenHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are recorded on amd64; other architectures may fuse multiply-add into FMA")
	}
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		t.Run(dt.String(), func(t *testing.T) {
			got := goldenHashes(dt)
			want := goldenWant[dt]
			ok := len(got) == len(want)
			for i := 0; ok && i < len(got); i++ {
				if got[i] != want[i] {
					t.Errorf("%s: hash %#016x, recorded %#016x", got[i].name, got[i].hash, want[i].hash)
					ok = false
				}
			}
			if !ok {
				var b strings.Builder
				for _, g := range got {
					fmt.Fprintf(&b, "\t\t{%q, %#016x},\n", g.name, g.hash)
				}
				t.Errorf("%s outputs differ from the recorded table; got:\n%s", dt, b.String())
			}
		})
	}
}

// goldenHasher accumulates the named hashes of one dtype's run.
type goldenHasher struct{ out []golden }

func (g *goldenHasher) tensors(name string, ts ...*tensor.Tensor) {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range ts {
		if t.DType() == tensor.F32 {
			for _, v := range t.Data32() {
				binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
				h.Write(b[:4])
			}
			continue
		}
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	g.out = append(g.out, golden{name, h.Sum64()})
}

func (g *goldenHasher) scalars(name string, vs ...float64) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	g.out = append(g.out, golden{name, h.Sum64()})
}

// goldenRand draws a fixed-seed tensor at f64 and converts it to dt, so the
// f32 inputs are the direct casts of the f64 ones.
func goldenRand(rng *rand.Rand, dt tensor.DType, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x.ConvertTo(dt)
}

// goldenParams converts a layer's parameters to dt (built at f64, as every
// model is) and gives gamma-like weights non-trivial values.
func goldenParams(rng *rand.Rand, dt tensor.DType, ps []*nn.Param) {
	for _, p := range ps {
		for i := range p.W.Data {
			p.W.Data[i] += 0.25 * rng.NormFloat64()
		}
		p.ConvertTo(dt)
	}
}

// goldenHashes runs every pinned kernel at dt and returns the hashes in a
// fixed order.
func goldenHashes(dt tensor.DType) []golden {
	var g goldenHasher
	rng := rand.New(rand.NewSource(2024))
	par3 := tensor.NewParallel(3)
	defer par3.Close()
	groups := []*tensor.Parallel{tensor.NewParallel(1), par3}

	// GEMM: 24·37·29 clears the fan-out grain, and the odd sizes leave
	// remainders after the 2-row, 4-step and 8-column blocks.
	m, k, n := 24, 37, 29
	a, b := goldenRand(rng, dt, m, k), goldenRand(rng, dt, k, n)
	at, bt := goldenRand(rng, dt, k, m), goldenRand(rng, dt, n, k)
	acc0 := goldenRand(rng, dt, m, n)
	dst := tensor.NewDT(dt, m, n)
	tensor.MatMulInto(dst, a, b)
	g.tensors("MatMulInto", dst)
	tensor.MatMulTransAInto(dst, at, b)
	g.tensors("MatMulTransAInto", dst)
	acc := acc0.Clone()
	tensor.MatMulTransAAccInto(acc, at, b)
	g.tensors("MatMulTransAAccInto", acc)
	tensor.MatMulTransBInto(dst, a, bt)
	g.tensors("MatMulTransBInto", dst)
	for _, p := range groups {
		w := fmt.Sprintf("/workers=%d", p.Workers())
		p.MatMulInto(dst, a, b)
		g.tensors("Parallel.MatMulInto"+w, dst)
		p.MatMulTransAInto(dst, at, b)
		g.tensors("Parallel.MatMulTransAInto"+w, dst)
		acc := acc0.Clone()
		p.MatMulTransAAccInto(acc, at, b)
		g.tensors("Parallel.MatMulTransAAccInto"+w, acc)
		p.MatMulTransBInto(dst, a, bt)
		g.tensors("Parallel.MatMulTransBInto"+w, dst)
	}

	// Convolution: the arena reference path and the fused parallel path,
	// forward and backward (the backward's dW is the a·bᵀ-accumulate form).
	for _, cv := range []struct{ c, h, f, kh, stride, pad int }{
		{c: 4, h: 12, f: 6, kh: 3, stride: 1, pad: 1},
		{c: 3, h: 9, f: 5, kh: 3, stride: 2, pad: 0},
	} {
		geo := fmt.Sprintf("/c%dh%df%dk%ds%dp%d", cv.c, cv.h, cv.f, cv.kh, cv.stride, cv.pad)
		x := goldenRand(rng, dt, 2, cv.c, cv.h, cv.h)
		w := goldenRand(rng, dt, cv.f, cv.c, cv.kh, cv.kh)
		bias := goldenRand(rng, dt, cv.f)
		y, cols := tensor.Conv2DForwardArena(tensor.NewArena(), x, w, bias, cv.stride, cv.pad, nil)
		g.tensors("Conv2DForwardArena"+geo, append([]*tensor.Tensor{y}, cols...)...)
		dy := goldenRand(rng, dt, y.Shape...)
		dw0, db0 := goldenRand(rng, dt, w.Shape...), goldenRand(rng, dt, cv.f)
		dw, db := dw0.Clone(), db0.Clone()
		dx := tensor.Conv2DBackwardArena(tensor.NewArena(), dy, w, cols, dw, db, x.Shape, cv.stride, cv.pad)
		g.tensors("Conv2DBackwardArena"+geo, dx, dw, db)
		for _, p := range groups {
			wk := fmt.Sprintf("/workers=%d", p.Workers())
			y, cols := p.ConvForward(tensor.NewArena(), x, w, bias, cv.stride, cv.pad, nil)
			g.tensors("Parallel.ConvForward"+geo+wk, append([]*tensor.Tensor{y}, cols...)...)
			dw, db := dw0.Clone(), db0.Clone()
			dx := p.ConvBackward(tensor.NewArena(), dy, w, cols, dw, db, x.Shape, cv.stride, cv.pad)
			g.tensors("Parallel.ConvBackward"+geo+wk, dx, dw, db)
		}
		img := goldenRand(rng, dt, cv.c, cv.h, cv.h)
		col := tensor.Im2Col(img, cv.kh, cv.kh, cv.stride, cv.pad)
		g.tensors("Im2Col"+geo, col)
		g.tensors("Col2Im"+geo, tensor.Col2Im(col, cv.c, cv.h, cv.h, cv.kh, cv.kh, cv.stride, cv.pad))
		for _, p := range groups {
			wk := fmt.Sprintf("/workers=%d", p.Workers())
			pc := tensor.NewDT(dt, col.Shape...)
			p.Im2ColInto(pc, img, cv.kh, cv.kh, cv.stride, cv.pad)
			back := tensor.NewDT(dt, cv.c, cv.h, cv.h)
			p.Col2ImInto(back, pc, cv.c, cv.h, cv.h, cv.kh, cv.kh, cv.stride, cv.pad)
			g.tensors("Parallel.Im2ColInto+Col2ImInto"+geo+wk, pc, back)
		}
	}

	// Pooling, forward and backward.
	x := goldenRand(rng, dt, 2, 3, 8, 8)
	y, argmax := tensor.MaxPool2DForward(x, 3, 2)
	g.tensors("MaxPool2DForward", y)
	g.tensors("MaxPool2DBackward", tensor.MaxPool2DBackward(goldenRand(rng, dt, y.Shape...), argmax, x.Shape))
	ap := tensor.AvgPool2DForward(x, 2)
	g.tensors("AvgPool2DForward", ap)
	g.tensors("AvgPool2DBackward", tensor.AvgPool2DBackward(goldenRand(rng, dt, ap.Shape...), x.Shape, 2))
	gp := tensor.GlobalAvgPoolForward(x)
	g.tensors("GlobalAvgPoolForward", gp)
	g.tensors("GlobalAvgPoolBackward", tensor.GlobalAvgPoolBackward(goldenRand(rng, dt, gp.Shape...), x.Shape))

	// Element-wise ops and reductions.
	u, v := goldenRand(rng, dt, 5, 7), goldenRand(rng, dt, 5, 7)
	e := u.Clone()
	e.Add(v)
	g.tensors("Add", e)
	e.Sub(u)
	g.tensors("Sub", e)
	e.AddScaled(u, 0.3)
	g.tensors("AddScaled", e)
	e.Scale(-1.7)
	g.tensors("Scale", e)
	e.Hadamard(v)
	g.tensors("Hadamard", e)
	g.tensors("Transpose", tensor.Transpose(e))
	g.scalars("Sum/MaxAbs/Norm2/ArgMaxRow", e.Sum(), e.MaxAbs(), e.Norm2(), float64(e.ArgMaxRow(3)))

	// Normalization layers, forward and backward (with parameter gradients).
	gn := nn.NewGroupNorm("gn", 6, 3)
	goldenParams(rng, dt, gn.Params())
	gx := goldenRand(rng, dt, 2, 6, 5, 5)
	gy, gctx := gn.Forward(gx, nil, nil)
	g.tensors("GroupNorm.Forward", gy)
	gdx := gn.Backward(goldenRand(rng, dt, gy.Shape...), gctx, nil, nil)
	g.tensors("GroupNorm.Backward", gdx, gn.Gamma.Grad(), gn.Beta.Grad())
	ln := nn.NewLayerNorm("ln", 11)
	goldenParams(rng, dt, ln.Params())
	lx := goldenRand(rng, dt, 3, 11)
	ly, lctx := ln.Forward(lx, nil, nil)
	g.tensors("LayerNorm.Forward", ly)
	ldx := ln.Backward(goldenRand(rng, dt, ly.Shape...), lctx, nil, nil)
	g.tensors("LayerNorm.Backward", ldx, ln.Gamma.Grad(), ln.Beta.Grad())

	// The other layers whose bodies carry per-dtype code.
	dense := nn.NewDense("fc", 13, 9, true, rng)
	goldenParams(rng, dt, dense.Params())
	dxin := goldenRand(rng, dt, 3, 13)
	dy, dctx := dense.Forward(dxin, nil, nil)
	g.tensors("Dense.Forward", dy)
	g.tensors("Dense.Backward", dense.Backward(goldenRand(rng, dt, dy.Shape...), dctx, nil, nil), dense.Weight.Grad(), dense.Bias.Grad())
	ry, rctx := nn.ReLU{}.Forward(dxin, nil, nil)
	g.tensors("ReLU", ry, nn.ReLU{}.Backward(goldenRand(rng, dt, ry.Shape...), rctx, nil, nil))
	sx := goldenRand(rng, dt, 2, 3, 6, 6)
	ds := nn.DownsampleShortcut{OutC: 5}
	sy := ds.Apply(sx, nil)
	g.tensors("DownsampleShortcut", sy, ds.Grad(goldenRand(rng, dt, sy.Shape...), sx.Shape, nil))
	sum, _ := nn.NewAddSkip("add").Forward(&nn.Packet{X: sx, Skips: []*tensor.Tensor{goldenRand(rng, dt, sx.Shape...)}}, nil, nil)
	g.tensors("AddSkip", sum.X)

	// Loss head.
	logits := goldenRand(rng, dt, 4, 10)
	logits.Scale(3)
	loss, dl := nn.SoftmaxCrossEntropy{}.Loss(logits, []int{3, 0, 9, 5})
	g.scalars("SoftmaxCrossEntropy.loss", loss)
	g.tensors("SoftmaxCrossEntropy.grad", dl)

	// One spiked SGDM step with weight decay, taken twice so the velocity
	// recurrence is exercised.
	p := nn.NewParam("w", tensor.New(6, 7))
	goldenParams(rng, dt, []*nn.Param{p})
	o := NewSpiked(0.05, 0.9, 0.7, 1.3)
	o.WeightDecay = 1e-3
	for i := 0; i < 2; i++ {
		p.Grad().CopyFrom(goldenRand(rng, dt, 6, 7))
		o.Step([]*nn.Param{p})
	}
	g.tensors("Momentum.Step", p.W, p.Grad())
	g.scalars("Momentum.Step/velocity", o.Vel(p)...)
	return g.out
}

package main

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// A replay walks the workload's own model through one layer's public
// functions on the harness goroutine, one span per call, so a layer's cost is
// seen without scheduling, channels or other stages' cache traffic.

// layerReplay is the per-sample cost of the nn and optim layers.
type layerReplay struct {
	forwardNs, backwardNs, lossNs float64
	stepNs, predictNs             float64
	stageMaxNs, imbalance         float64
}

func (l layerReplay) total() float64 {
	return l.forwardNs + l.backwardNs + l.lossNs + l.stepNs + l.predictNs
}

func (l layerReplay) into(m map[string]float64) {
	m["nn.forward_ns_per_sample"] = l.forwardNs
	m["nn.backward_ns_per_sample"] = l.backwardNs
	m["nn.loss_ns_per_sample"] = l.lossNs
	m["nn.stage_max_ns"] = l.stageMaxNs
	m["nn.stage_imbalance"] = l.imbalance
	m["optim.step_ns_per_sample"] = l.stepNs
	m["optim.predict_ns_per_sample"] = l.predictNs
}

// replayLayers trains n samples of ds through a fresh copy of the model one
// stage call at a time, the way a pipelined engine's stage does it: predict
// weights (LWP), forward, loss at the head, backward, spiked momentum step.
// Each stage owns an arena, as in the engines.
func replayLayers(trc *tracer, m model, ds *data.Dataset, n int) layerReplay {
	net := m.build(modelSeed)
	s := net.NumStages()
	cfg := refConfig()
	delays := core.StageDelays(s)
	arenas := make([]*tensor.Arena, s)
	opts := make([]*optim.Momentum, s)
	for i := range opts {
		arenas[i] = tensor.NewArena()
		a, b := optim.SpikeCoefficients(cfg.Momentum, cfg.Mitigation.SCScale*float64(delays[i]))
		opts[i] = optim.NewSpiked(cfg.LR, cfg.Momentum, a, b)
		opts[i].WeightDecay = cfg.WeightDecay
	}
	var out layerReplay
	stageNs := make([]float64, s)
	ctxs := make([]any, s)
	label := make([]int, 1)
	shape := append([]int{1}, ds.Shape...)
	const warm = 4 // first samples fill the arenas and are not counted
	for i := 0; i < n+warm; i++ {
		timed := i >= warm
		root := trc.begin("replay.sample", 0, i+1)
		add := func(acc *float64, stage int, id int) {
			d := float64(trc.end(id).Nanoseconds())
			if timed {
				*acc += d
				if stage >= 0 {
					stageNs[stage] += d
				}
			}
		}
		x := arenas[0].GetDT(tensor.F64, shape...)
		x.SetFloat64s(0, ds.Samples[i%ds.Len()])
		p := nn.NewPacket(x)
		for st := 0; st < s; st++ {
			params := net.Stages[st].Params()
			if horizon := cfg.Mitigation.LWPScale * float64(delays[st]); horizon > 0 && len(params) > 0 {
				id := trc.begin("optim.predict", root, i+1)
				for _, pr := range params {
					opts[st].Predict(pr, cfg.Mitigation.LWPForm, horizon)
				}
				add(&out.predictNs, -1, id)
			}
			id := trc.begin("nn.forward", root, i+1)
			p, ctxs[st] = net.Stages[st].Forward(p, arenas[st], nil)
			add(&out.forwardNs, st, id)
		}
		label[0] = ds.Labels[i%ds.Len()]
		id := trc.begin("nn.loss", root, i+1)
		dl := arenas[s-1].GetDT(p.X.DType(), p.X.Shape...)
		net.Head.LossInto(dl, p.X, label)
		add(&out.lossNs, -1, id)
		arenas[s-1].Put(p.X)
		p.X = dl
		for st := s - 1; st >= 0; st-- {
			id := trc.begin("nn.backward", root, i+1)
			p = net.Stages[st].Backward(p, ctxs[st], arenas[st], nil)
			add(&out.backwardNs, st, id)
			if params := net.Stages[st].Params(); len(params) > 0 {
				id := trc.begin("optim.step", root, i+1)
				opts[st].Step(params)
				add(&out.stepNs, -1, id)
			}
		}
		arenas[0].Put(p.X)
		trc.end(root)
	}
	for _, v := range []*float64{&out.forwardNs, &out.backwardNs, &out.lossNs, &out.stepNs, &out.predictNs} {
		*v /= float64(n)
	}
	for i := range stageNs {
		stageNs[i] /= float64(n)
		out.stageMaxNs = max(out.stageMaxNs, stageNs[i])
	}
	if m := mean(stageNs); m > 0 {
		out.imbalance = out.stageMaxNs / m
	}
	return out
}

// kernelClass is one distinct kernel shape of a model and how many of the
// model's layers have it.
type kernelClass struct {
	conv                  bool
	c, h, w, f, k, stride int // conv: input [1,c,h,w], weight [f,c,k,k], pad (k-1)/2
	in, out               int // dense: weight [out,in], M=1
	layers                int
}

// macs is the multiply-accumulate count of one forward call.
func (k kernelClass) macs() float64 {
	if !k.conv {
		return float64(k.in * k.out)
	}
	oh := tensor.ConvOut(k.h, k.k, k.stride, (k.k-1)/2)
	ow := tensor.ConvOut(k.w, k.k, k.stride, (k.k-1)/2)
	return float64(k.f * k.c * k.k * k.k * oh * ow)
}

// kernelClasses probes the model with one sample and groups its conv and
// dense layers by shape, heaviest class (by total MACs) first. A stage's
// kernels are read off its parameters: a 4-D weight is a conv over the
// stage's input activation, a 2-D weight a dense layer.
func kernelClasses(m model) []kernelClass {
	net := m.build(modelSeed)
	p := nn.NewPacket(tensor.New(append([]int{1}, m.shape...)...))
	counts := map[kernelClass]int{}
	for _, st := range net.Stages {
		in := p.X.Shape
		q, _ := st.Forward(p, nil, nil)
		for _, pr := range st.Params() {
			switch ws := pr.W.Shape; len(ws) {
			case 4:
				counts[kernelClass{conv: true, c: ws[1], h: in[2], w: in[3], f: ws[0], k: ws[2], stride: in[2] / q.X.Shape[2]}]++
			case 2:
				counts[kernelClass{in: ws[1], out: ws[0]}]++
			}
		}
		p = q
	}
	classes := make([]kernelClass, 0, len(counts))
	for k, n := range counts {
		k.layers = n
		classes = append(classes, k)
	}
	sort.Slice(classes, func(i, j int) bool {
		a, b := classes[i], classes[j]
		if wa, wb := a.macs()*float64(a.layers), b.macs()*float64(b.layers); wa != wb {
			return wa > wb
		}
		return a.macs() > b.macs() || (a.macs() == b.macs() && !a.conv && b.conv)
	})
	return classes
}

// kernelReplay is the tensor layer's ledger for one model.
type kernelReplay struct {
	perSampleNs, gflops float64
	convFwd, convBwd    [2]float64 // [f64, f32] ns per call, heaviest conv class
	gemvFwd, gemvBwd    [2]float64 // heaviest dense class
	parConvFwd          float64
	haveConv, haveDense bool
}

func (k kernelReplay) into(m map[string]float64) {
	m["tensor.kernel_ns_per_sample"] = k.perSampleNs
	m["tensor.kernel_gflops"] = k.gflops
	m["tensor.conv_fwd_ns"], m["tensor.conv_fwd_ns_f32"] = k.convFwd[0], k.convFwd[1]
	m["tensor.conv_bwd_ns"], m["tensor.conv_bwd_ns_f32"] = k.convBwd[0], k.convBwd[1]
	m["tensor.gemv_fwd_ns"], m["tensor.gemv_fwd_ns_f32"] = k.gemvFwd[0], k.gemvFwd[1]
	m["tensor.gemv_bwd_ns"], m["tensor.gemv_bwd_ns_f32"] = k.gemvBwd[0], k.gemvBwd[1]
	m["tensor.par_conv_fwd_ns"] = k.parConvFwd
}

// timeKernel runs fwd and bwd iters times after a short warm-up, one span per
// call, and returns the median duration of each.
func timeKernel(trc *tracer, name string, iters int, fwd, bwd func()) (fwdNs, bwdNs float64) {
	var fs, bs []float64
	for i := -3; i < iters; i++ {
		id := trc.begin(name+".fwd", 0, 0)
		fwd()
		f := trc.end(id)
		id = trc.begin(name+".bwd", 0, 0)
		bwd()
		b := trc.end(id)
		if i >= 0 {
			fs, bs = append(fs, float64(f.Nanoseconds())), append(bs, float64(b.Nanoseconds()))
		}
	}
	return median(fs), median(bs)
}

// timeClass times one kernel class through the public tensor kernels, the
// same calls nn.Conv2D and nn.Dense make, on group par (nil = serial).
func timeClass(trc *tracer, k kernelClass, dt tensor.DType, par *tensor.Parallel, iters int) (fwdNs, bwdNs float64) {
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		for i := range t.Data {
			t.Data[i] = float64(i%17)/17 - 0.5
		}
		return t.ConvertTo(dt)
	}
	if !k.conv {
		x, wt := fill(tensor.New(1, k.in)), fill(tensor.New(k.out, k.in))
		y, dy := tensor.NewDT(dt, 1, k.out), fill(tensor.New(1, k.out))
		g, dx := tensor.NewDT(dt, k.out, k.in), tensor.NewDT(dt, 1, k.in)
		return timeKernel(trc, "tensor.gemv", iters,
			func() { par.MatMulTransBInto(y, x, wt) },
			func() {
				par.MatMulTransAAccInto(g, dy, x)
				par.MatMulInto(dx, dy, wt)
			})
	}
	pad := (k.k - 1) / 2
	x, wt := fill(tensor.New(1, k.c, k.h, k.w)), fill(tensor.New(k.f, k.c, k.k, k.k))
	dw := tensor.NewDT(dt, k.f, k.c, k.k, k.k)
	ar := tensor.NewArena()
	var y *tensor.Tensor
	var cols []*tensor.Tensor
	return timeKernel(trc, "tensor.conv", iters,
		func() { y, cols = par.ConvForward(ar, x, wt, nil, k.stride, pad, cols) },
		func() {
			// The output doubles as the incoming gradient, as in cmd/bench.
			dx := par.ConvBackward(ar, y, wt, cols, dw, nil, x.Shape, k.stride, pad)
			ar.Put(y, dx)
			ar.Put(cols...)
		})
}

// replayKernels times every kernel class of the model at f64 (their
// layer-weighted sum is the kernel time of one training sample) and the
// heaviest conv and dense classes again at f32 and on a full worker group.
func replayKernels(trc *tracer, m model, iters int) kernelReplay {
	var out kernelReplay
	var flops float64
	for _, k := range kernelClasses(m) {
		f, b := timeClass(trc, k, tensor.F64, nil, iters)
		out.perSampleNs += float64(k.layers) * (f + b)
		// Backward is two GEMMs of the forward's size (dW and dx).
		flops += float64(k.layers) * 3 * 2 * k.macs()
		first := (k.conv && !out.haveConv) || (!k.conv && !out.haveDense)
		if !first {
			continue
		}
		f32, b32 := timeClass(trc, k, tensor.F32, nil, iters)
		if k.conv {
			out.haveConv = true
			out.convFwd, out.convBwd = [2]float64{f, f32}, [2]float64{b, b32}
			par := tensor.NewParallel(gomaxprocs())
			out.parConvFwd, _ = timeClass(trc, k, tensor.F64, par, iters)
			par.Close()
		} else {
			out.haveDense = true
			out.gemvFwd, out.gemvBwd = [2]float64{f, f32}, [2]float64{b, b32}
		}
	}
	if out.perSampleNs > 0 {
		out.gflops = flops / out.perSampleNs
	}
	return out
}

// inferReplay times train.Server.Infer at batch sizes 1 and 8 on an idle
// server, returning the median milliseconds of each.
func inferReplay(trc *tracer, infer func(x *tensor.Tensor) error, shape []int, iters int) (b1, b8 float64, err error) {
	timeBatch := func(n int) (float64, error) {
		var ms []float64
		for i := -3; i < iters; i++ {
			// Infer takes ownership of its input, so every call gets a new one.
			x := tensor.New(append([]int{n}, shape...)...)
			for j := range x.Data {
				x.Data[j] = float64((i+j)%13)/13 - 0.5
			}
			id := trc.begin("core.infer", 0, n)
			err := infer(x)
			d := trc.end(id)
			if err != nil {
				return 0, err
			}
			if i >= 0 {
				ms = append(ms, float64(d)/float64(time.Millisecond))
			}
		}
		return median(ms), nil
	}
	if b1, err = timeBatch(1); err != nil {
		return 0, 0, err
	}
	b8, err = timeBatch(serveBatch)
	return b1, b8, err
}

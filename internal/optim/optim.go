// Package optim implements the optimizers and delay-mitigation primitives
// from "Pipelined Backpropagation at Scale": SGD with momentum, generalized
// spike compensation (Section 3.2), linear weight prediction in both its
// velocity and weight-difference forms (Section 3.3), the SpecTrain and
// gradient-shrinking comparators, Adam, and the small-batch hyperparameter
// scaling rule (Eq. 9).
package optim

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Scale applies the hyperparameter scaling rule of Eq. 9 (after Chiley et
// al. 2019): given reference values (etaRef, mRef) tuned for update size
// nRef, it returns the values for update size n. Momentum is scaled so the
// per-sample decay is constant and the learning rate so the expected update
// contribution per sample is constant.
func Scale(etaRef, mRef float64, nRef, n int) (eta, m float64) {
	m = math.Pow(mRef, float64(n)/float64(nRef))
	eta = (1 - m) * float64(n) / ((1 - mRef) * float64(nRef)) * etaRef
	return eta, m
}

// SpikeCoefficients returns the default spike-compensation coefficients of
// Eq. 14 for momentum m and (possibly scaled) delay d:
//
//	a = m^d,  b = (1 - m^d)/(1 - m).
//
// For d = 0 this degenerates to (1, 0), i.e. plain SGDM. The b coefficient
// equals the total weight-update contribution the delayed gradient missed
// (Eq. 13), applied as an immediate spike.
func SpikeCoefficients(m, d float64) (a, b float64) {
	if d == 0 {
		return 1, 0
	}
	a = math.Pow(m, d)
	if m == 1 {
		return a, d
	}
	b = (1 - a) / (1 - m)
	return a, b
}

// NesterovCoefficients returns (a, b) = (m, 1): with these coefficients the
// generalized spike-compensation update is exactly Nesterov momentum, and for
// a delay of one it coincides with SpikeCoefficients (Section 3.5).
func NesterovCoefficients(m float64) (a, b float64) { return m, 1 }

// EquivalentGSCForLWP returns spike-compensation coefficients (a, b) that
// make GSC match linear weight prediction with horizon T on a quadratic
// (locally linear gradient), per Appendix D Eqs. 44-45: a+b = 1+T, m·b = T.
// m must be positive.
func EquivalentGSCForLWP(m, T float64) (a, b float64) {
	b = T / m
	a = 1 + T - b
	return a, b
}

// EquivalentLWPHorizon returns the LWP horizon T that matches the default
// spike compensation SCD on a quadratic (Appendix D Eq. 46):
// T = m(1-m^D)/(1-m).
func EquivalentLWPHorizon(m float64, d float64) float64 {
	if m == 1 {
		return d
	}
	return m * (1 - math.Pow(m, d)) / (1 - m)
}

// Momentum is SGD with momentum extended with generalized spike
// compensation. The update is
//
//	v ← m·v + g
//	w ← w − η·(A·v + B·g)
//
// Plain SGDM is (A,B) = (1,0); Nesterov is (m,1); SCD uses SpikeCoefficients.
// When TrackPrev is set the optimizer retains the previous weight vector of
// every parameter, which the weight-difference form of linear weight
// prediction (LWPw) needs.
type Momentum struct {
	LR, M        float64
	A, B         float64
	WeightDecay  float64
	TrackPrev    bool
	vel, prevMap map[*nn.Param][]float64
}

// NewMomentum returns a plain SGDM optimizer (A=1, B=0).
func NewMomentum(lr, m float64) *Momentum {
	return &Momentum{LR: lr, M: m, A: 1, B: 0,
		vel: make(map[*nn.Param][]float64), prevMap: make(map[*nn.Param][]float64)}
}

// NewSpiked returns an optimizer with explicit spike coefficients.
func NewSpiked(lr, m, a, b float64) *Momentum {
	o := NewMomentum(lr, m)
	o.A, o.B = a, b
	return o
}

// Vel returns (allocating if needed) the velocity buffer of p.
func (o *Momentum) Vel(p *nn.Param) []float64 {
	v, ok := o.vel[p]
	if !ok {
		v = make([]float64, p.W.Size())
		o.vel[p] = v
	}
	return v
}

// VelIfTracked returns p's velocity buffer, or nil when no update has
// touched p yet. Unlike Vel it never mutates the optimizer, which makes it
// safe for read-only snapshots (checkpointing).
func (o *Momentum) VelIfTracked(p *nn.Param) []float64 { return o.vel[p] }

// PrevIfTracked returns p's previous-weight buffer, or nil when none is
// tracked. Read-only counterpart of Prev.
func (o *Momentum) PrevIfTracked(p *nn.Param) []float64 { return o.prevMap[p] }

// Prev returns the weights of p before the most recent Step, or the current
// weights if no step has been taken. Only tracked when TrackPrev is set.
func (o *Momentum) Prev(p *nn.Param) []float64 {
	v, ok := o.prevMap[p]
	if !ok {
		v = p.Snapshot()
		o.prevMap[p] = v
	}
	return v
}

// Gather exposes the optimizer state of p for cross-replica coordination
// (internal/sync): the live velocity buffer (allocated zeroed on first use —
// an untouched parameter's algorithmic velocity) and the live previous-weight
// buffer, nil when not tracked. Callers own nothing; mutating the returned
// slices mutates the optimizer, which is the point.
func (o *Momentum) Gather(p *nn.Param) (vel, prev []float64) {
	return o.Vel(p), o.prevMap[p]
}

// Scatter copies externally coordinated state into the optimizer's buffers
// for p: a non-nil vel replaces the velocity and a non-nil prev the tracked
// previous weights (allocating either on demand). Nil slices leave the
// corresponding buffer untouched. Lengths must match p.
func (o *Momentum) Scatter(p *nn.Param, vel, prev []float64) {
	if vel != nil {
		if len(vel) != p.W.Size() {
			panic("optim: Scatter velocity length mismatch for " + p.Name)
		}
		copy(o.Vel(p), vel)
	}
	if prev != nil {
		if len(prev) != p.W.Size() {
			panic("optim: Scatter prev-weights length mismatch for " + p.Name)
		}
		copy(o.Prev(p), prev)
	}
}

// Step applies one update to every parameter and leaves every gradient
// pending zero. A pending rank-1 gradient (nn.Param.PendingOuter) is formed
// element by element inside the update; at f32 it is materialised first.
func (o *Momentum) Step(params []*nn.Param) {
	for _, p := range params {
		v := o.Vel(p)
		if p.DType() == tensor.F32 {
			if o.TrackPrev {
				panic("optim: TrackPrev (weight prediction) is f64-only; f32 training excludes delay mitigations")
			}
			step32(o, p.W.Data32(), p.Grad().Data32(), v)
			p.ZeroGrad()
			continue
		}
		if o.TrackPrev {
			prev, ok := o.prevMap[p]
			if !ok {
				prev = make([]float64, p.W.Size())
				o.prevMap[p] = prev
			}
			copy(prev, p.W.Data)
		}
		o.stepRows(p, v, false, 0)
		p.ZeroGrad()
	}
}

// update is one element of the SGDM/GSC update with momentum m, learning
// rate lr, spike coefficients (a, b) and weight decay wd: it returns the new
// weight and velocity for weight w, velocity v and gradient g. Every step
// loop copies the optimizer's fields into locals once and calls this (it
// inlines), so they share the arithmetic bit for bit; the amd64 row kernel
// (row_amd64.s) performs the same operations in the same order.
func update(w, v, g, m, lr, a, b, wd float64) (wNew, vNew float64) {
	if wd != 0 {
		g += wd * w
	}
	vNew = m*v + g
	wNew = w - lr*(a*vNew+b*g)
	return wNew, vNew
}

// step32 updates one f32 parameter's weights w from its stored gradient g.
// Velocity stays float64 — master-precision optimizer state: each weight is
// widened to f64, updated there, and rounded exactly once on the write back,
// so an f32 step loses precision only at the final store (the standard
// mixed-precision recipe).
func step32(o *Momentum, w, g []float32, v []float64) {
	m, lr, ca, cb, wd := o.M, o.LR, o.A, o.B, o.WeightDecay
	g, v = g[:len(w)], v[:len(w)]
	for i, wi := range w {
		wn, vn := update(float64(wi), v[i], float64(g[i]), m, lr, ca, cb, wd)
		w[i], v[i] = float32(wn), vn
	}
}

// rowArgs is one row of the fused f64 update: the coefficient block the row
// kernel reads (field order is the kernel's layout) and the row's mode.
type rowArgs struct {
	m, lr, a, b, wd float64
	lrt             float64 // lr·T, the velocity-form prediction's step
	ar              float64 // the row's factor of a pending a⊗b gradient
	mode            int
}

// Row modes. With rowOuter element c's gradient is Outer(ar, src[c]), else
// src[c]; rowDecay is set exactly when wd ≠ 0 (update's test); with
// rowPredict dst[c] receives ŵ = lwpV(w', v', lrt).
const (
	rowOuter = 1 << iota
	rowDecay
	rowPredict
)

// stepRows applies the f64 update to p — from the pending gradient 0 + a⊗b
// row by row (see nn.Param.PendingOuter), else from the stored G in one
// row — and, with predict, writes the velocity-form prediction for horizon
// t into G in the same pass. Every row runs stepRow.
func (o *Momentum) stepRows(p *nn.Param, v []float64, predict bool, t float64) {
	k := rowArgs{m: o.M, lr: o.LR, a: o.A, b: o.B, wd: o.WeightDecay, lrt: o.LR * t}
	if k.wd != 0 {
		k.mode |= rowDecay
	}
	if predict {
		k.mode |= rowPredict
	}
	w := p.W.Data
	a, b, outer := p.PendingOuter()
	if !outer {
		g := p.Grad().Data
		stepRow(&k, w, v, g, g)
		return
	}
	k.mode |= rowOuter
	var g, gr []float64
	if predict {
		g = p.GradForOverwrite().Data
	}
	n := len(b.Data)
	for r, ar := range a.Data {
		k.ar = ar
		if predict {
			gr = g[r*n:][:n]
		}
		stepRow(&k, w[r*n:][:n], v[r*n:][:n], b.Data, gr)
	}
}

// stepRowGo is one row of the fused update in scalar Go: the portable path,
// the amd64 kernel's tail, and its test oracle. src is the gradient row, or
// with rowOuter the column factor b; dst is written only with rowPredict.
func stepRowGo(k *rowArgs, w, v, src, dst []float64) {
	m, lr, ca, cb, wd, lrt, ar := k.m, k.lr, k.a, k.b, k.wd, k.lrt, k.ar
	outer, predict := k.mode&rowOuter != 0, k.mode&rowPredict != 0
	v, src = v[:len(w)], src[:len(w)]
	if predict {
		dst = dst[:len(w)]
	}
	for c, wc := range w {
		g := src[c]
		if outer {
			g = nn.Outer(ar, g)
		}
		wn, vn := update(wc, v[c], g, m, lr, ca, cb, wd)
		w[c], v[c] = wn, vn
		if predict {
			dst[c] = lwpV(wn, vn, lrt)
		}
	}
}

// StepPredict is Step fused with linear weight prediction: in the same pass
// over (w, v) it writes each parameter's predicted weights for horizon t —
// Eq. 18 or 19, formed from the weights and velocity just written — into the
// gradient buffer G instead of leaving it pending zero. The result is
// bit-identical to Step followed by PredictInto(p.Grad().Data, p, form, t).
// G then holds ŵ, not a gradient: the caller must ZeroGrad before the next
// backward accumulates. The weight form needs TrackPrev. f64 only, like
// every predictor.
func (o *Momentum) StepPredict(params []*nn.Param, form LWPForm, t float64) {
	if form == LWPWeight && !o.TrackPrev {
		panic("optim: StepPredict with the weight form (LWPw) needs TrackPrev")
	}
	for _, p := range params {
		if p.DType() != tensor.F64 {
			panic("optim: weight prediction is f64-only for " + p.Name)
		}
		w, v := p.W.Data, o.Vel(p)
		var prev []float64
		if o.TrackPrev {
			prev = o.Prev(p)
			if form == LWPVelocity {
				// Only the weight form reads prev inside the loop.
				copy(prev, w)
			}
		}
		if form == LWPVelocity {
			o.stepRows(p, v, true, t)
			continue
		}
		if a, b, ok := p.PendingOuter(); ok {
			stepPredictOuterW(o, w, a.Data, b.Data, p.GradForOverwrite().Data, v, prev, t)
		} else {
			stepPredictW(o, w, p.Grad().Data, v, prev, t)
		}
	}
}

// stepPredictW is the weight-form (lwpW) StepPredict from a stored
// gradient: g receives ŵ in place of the gradient, prev the weights before
// the update. The weight form runs in scalar Go on every GOARCH.
func stepPredictW(o *Momentum, w, g, v, prev []float64, t float64) {
	m, lr, ca, cb, wd := o.M, o.LR, o.A, o.B, o.WeightDecay
	g, v, prev = g[:len(w)], v[:len(w)], prev[:len(w)]
	for i, wi := range w {
		prev[i] = wi
		wn, vn := update(wi, v[i], g[i], m, lr, ca, cb, wd)
		w[i], v[i] = wn, vn
		g[i] = lwpW(wn, wi, t)
	}
}

// stepPredictOuterW is stepPredictW fed by the pending gradient 0 + a⊗b;
// g only receives ŵ.
func stepPredictOuterW(o *Momentum, w, a, b, g, v, prev []float64, t float64) {
	m, lr, ca, cb, wd := o.M, o.LR, o.A, o.B, o.WeightDecay
	n := len(b)
	for r, ar := range a {
		wr, vr, gr, pr := w[r*n:][:n], v[r*n:][:n], g[r*n:][:n], prev[r*n:][:n]
		for c, bc := range b {
			wi := wr[c]
			pr[c] = wi
			wn, vn := update(wi, vr[c], nn.Outer(ar, bc), m, lr, ca, cb, wd)
			wr[c], vr[c] = wn, vn
			gr[c] = lwpW(wn, wi, t)
		}
	}
}

// LWPForm selects between the two linear weight prediction variants of
// Section 3.3.
type LWPForm int

const (
	// LWPVelocity is Eq. 18: ŵ = w − ηT·v.
	LWPVelocity LWPForm = iota
	// LWPWeight is Eq. 19: ŵ = w + T·(w − w_prev).
	LWPWeight
)

// String returns the paper's name for the form.
func (f LWPForm) String() string {
	if f == LWPWeight {
		return "LWPw"
	}
	return "LWPv"
}

// lwpV and lwpW are one element of the linear weight prediction with
// horizon T: Eq. 18, ŵ = w − η·T·v (taking lrt = η·T, computed once), and
// Eq. 19, ŵ = w + T·(w − w_prev). Every predictor — StepPredict inside the
// optimizer's own pass, the others over a whole slice — computes ŵ here, so
// they agree bit for bit.
func lwpV(w, v, lrt float64) float64 { return w - lrt*v }

func lwpW(w, prev, t float64) float64 { return w + t*(w-prev) }

// lwpInto writes the whole prediction into dst.
func lwpInto(dst []float64, form LWPForm, w, v, prev []float64, lr, t float64) {
	if form == LWPWeight {
		for i := range dst {
			dst[i] = lwpW(w[i], prev[i], t)
		}
		return
	}
	lrt := lr * t
	for i := range dst {
		dst[i] = lwpV(w[i], v[i], lrt)
	}
}

// PredictVelocityForm computes ŵ = w − η·T·v into a fresh slice.
func PredictVelocityForm(w, v []float64, lr, t float64) []float64 {
	out := make([]float64, len(w))
	lwpInto(out, LWPVelocity, w, v, nil, lr, t)
	return out
}

// PredictWeightForm computes ŵ = w + T·(w − wPrev) into a fresh slice.
func PredictWeightForm(w, wPrev []float64, t float64) []float64 {
	out := make([]float64, len(w))
	lwpInto(out, LWPWeight, w, nil, wPrev, 0, t)
	return out
}

// Predict produces predicted weights for parameter p with horizon t using
// the requested form and the optimizer's state, in a fresh slice.
func (o *Momentum) Predict(p *nn.Param, form LWPForm, t float64) []float64 {
	if t == 0 {
		return p.Snapshot()
	}
	out := make([]float64, p.W.Size())
	o.PredictInto(out, p, form, t)
	return out
}

// PredictInto writes the predicted weights of p for horizon t > 0 into dst,
// which must have p's length. f64 only.
func (o *Momentum) PredictInto(dst []float64, p *nn.Param, form LWPForm, t float64) {
	if p.DType() != tensor.F64 {
		panic("optim: weight prediction is f64-only for " + p.Name)
	}
	if len(dst) != p.W.Size() {
		panic("optim: PredictInto length mismatch for " + p.Name)
	}
	if form == LWPWeight {
		lwpInto(dst, form, p.W.Data, nil, o.Prev(p), o.LR, t)
		return
	}
	lwpInto(dst, form, p.W.Data, o.Vel(p), nil, o.LR, t)
}

// ShrinkGradients scales all gradient accumulators by gamma^d — the
// Gradient Shrinking baseline of Zhuang et al. (2019), where the scaling
// decays exponentially with the stage delay.
func ShrinkGradients(params []*nn.Param, gamma, d float64) {
	s := math.Pow(gamma, d)
	for _, p := range params {
		p.Grad().Scale(s)
	}
}

// Adam is the Adam optimizer, included for the Section 5 discussion that
// adaptive optimizers may increase delay tolerance.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*nn.Param][]float64
}

// NewAdam returns Adam with the standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param][]float64), v: make(map[*nn.Param][]float64)}
}

// Step applies one Adam update and leaves every gradient pending zero.
func (o *Adam) Step(params []*nn.Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		if p.DType() != tensor.F64 {
			panic("optim: Adam is f64-only for " + p.Name)
		}
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, p.W.Size())
			o.m[p] = m
		}
		v, ok := o.v[p]
		if !ok {
			v = make([]float64, p.W.Size())
			o.v[p] = v
		}
		w, g := p.W.Data, p.Grad().Data
		for i := range w {
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g[i]
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g[i]*g[i]
			w[i] -= o.LR * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + o.Eps)
		}
		p.ZeroGrad()
	}
}

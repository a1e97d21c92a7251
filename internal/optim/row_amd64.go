package optim

// stepRow2 runs the fused update (see rowArgs) on elements [0, n) of a row,
// two lanes per SSE2 instruction. Each lane performs update's operations in
// update's order — multiplies and adds stay separate (MULPD, ADDPD, SUBPD,
// never FMA) — so every element is bit-identical to stepRowGo's; only a
// NaN's payload may differ, as it does between builds of the scalar loop.
// dst is written only with rowPredict. Requires n > 0 and n even.
//
//go:noescape
func stepRow2(k *rowArgs, w, v, src, dst *float64, n int)

// stepRow runs one row of the fused update: the even prefix in the SSE2
// kernel (SSE2 is part of every amd64 build, so no CPU probe is needed),
// a last odd element in stepRowGo.
func stepRow(k *rowArgs, w, v, src, dst []float64) {
	n := len(w) &^ 1
	if n == 0 {
		stepRowGo(k, w, v, src, dst)
		return
	}
	// The kernel does no bounds checks: re-slice first so a short slice
	// panics here.
	v, src = v[:len(w)], src[:len(w)]
	var d *float64
	if k.mode&rowPredict != 0 {
		dst = dst[:len(w)]
		d = &dst[0]
		dst = dst[n:]
	}
	stepRow2(k, &w[0], &v[0], &src[0], d, n)
	stepRowGo(k, w[n:], v[n:], src[n:], dst)
}

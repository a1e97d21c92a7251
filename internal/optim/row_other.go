//go:build !amd64

package optim

// stepRow runs one row of the fused update (see rowArgs). Off amd64 it is
// the scalar loop.
func stepRow(k *rowArgs, w, v, src, dst []float64) { stepRowGo(k, w, v, src, dst) }

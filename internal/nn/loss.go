package nn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over a
// batch of logits [N,K] with integer labels, together with the logit
// gradient. It is the training head for every classification experiment.
type SoftmaxCrossEntropy struct{}

// Loss returns the mean loss and dL/dlogits for logits [N,K] and labels of
// length N.
func (s SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	dl := tensor.NewDT(logits.DType(), logits.Shape[0], logits.Shape[1])
	return s.LossInto(dl, logits, labels), dl
}

// LossInto is Loss writing dL/dlogits into dl (fully overwritten), so hot
// paths can reuse the gradient buffer.
func (SoftmaxCrossEntropy) LossInto(dl, logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	if dl.Size() != n*k {
		panic("nn: SoftmaxCrossEntropy gradient size mismatch")
	}
	if dl.DType() != logits.DType() {
		panic("nn: SoftmaxCrossEntropy gradient dtype mismatch")
	}
	if logits.DType() == tensor.F32 {
		return lossInto(dl.Data32(), logits.Data32(), labels, n, k)
	}
	return lossInto(dl.Data, logits.Data, labels, n, k)
}

// lossInto is LossInto over raw storage. The softmax itself — exp, log, the
// probability normalization — runs in float64 at both dtypes (at f32 the
// transcendental chain is where error would compound); only the stored
// gradient rounds to T.
func lossInto[T tensor.Elem](dld, ld []T, labels []int, n, k int) float64 {
	total := 0.0
	for s := 0; s < n; s++ {
		row := ld[s*k : (s+1)*k]
		maxv := float64(row[0])
		for _, v := range row {
			if float64(v) > maxv {
				maxv = float64(v)
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(float64(v) - maxv)
		}
		logSum := math.Log(sum) + maxv
		total += logSum - float64(row[labels[s]])
		for j := 0; j < k; j++ {
			p := math.Exp(float64(row[j])-maxv) / sum
			dld[s*k+j] = T(p / float64(n))
		}
		dld[s*k+labels[s]] -= T(1.0 / float64(n))
	}
	return total / float64(n)
}

// Accuracy returns the number of rows whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) int {
	correct := 0
	for s := 0; s < logits.Shape[0]; s++ {
		if logits.ArgMaxRow(s) == labels[s] {
			correct++
		}
	}
	return correct
}

package tensor

import (
	"math"
	"math/rand"
)

// checkInitF64 rejects F32 tensors: initialization always runs at f64 so an
// f32 model is the deterministic cast of its f64 twin (nn.Network.ConvertTo
// converts after building — DESIGN.md §15). Looping t.Data on an F32 tensor
// would silently leave it zero.
func checkInitF64(t *Tensor) {
	if t.dtype != F64 {
		panic("tensor: initializers require an f64 tensor; build at f64, then convert")
	}
}

// HeNormal fills t with zero-mean Gaussian values of standard deviation
// sqrt(2/fanIn), the initialization of He et al. (2015) used by the paper's
// ResNet and VGG configurations.
func HeNormal(t *Tensor, fanIn int, rng *rand.Rand) {
	checkInitF64(t)
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// Normal fills t with zero-mean Gaussian values of standard deviation std.
func Normal(t *Tensor, std float64, rng *rand.Rand) {
	checkInitF64(t)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// Uniform fills t with values uniform in [lo, hi).
func Uniform(t *Tensor, lo, hi float64, rng *rand.Rand) {
	checkInitF64(t)
	for i := range t.Data {
		t.Data[i] = lo + rng.Float64()*(hi-lo)
	}
}

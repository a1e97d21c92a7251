// Package data provides the deterministic synthetic datasets that stand in
// for CIFAR-10 and ImageNet (see DESIGN.md substitution table: this
// environment has no dataset downloads, and the phenomena under study are
// optimization effects that any sufficiently hard classification task
// exercises). Image datasets are class-prototype fields plus deformation and
// noise; vector datasets (blobs, spirals) back the fast sweep experiments.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Dataset is an in-memory labeled dataset with a fixed per-sample shape.
type Dataset struct {
	Samples [][]float64
	Labels  []int
	// Shape is the per-sample shape, e.g. [3,16,16] for images or [32] for
	// vectors (without the leading batch dimension).
	Shape   []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// SampleSize returns the element count of one sample.
func (d *Dataset) SampleSize() int {
	n := 1
	for _, s := range d.Shape {
		n *= s
	}
	return n
}

// Batch stacks the samples at the given indices into one [N, ...] tensor.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	sz := d.SampleSize()
	shape := append([]int{len(idx)}, d.Shape...)
	x := tensor.New(shape...)
	labels := make([]int, len(idx))
	for i, j := range idx {
		copy(x.Data[i*sz:(i+1)*sz], d.Samples[j])
		labels[i] = d.Labels[j]
	}
	return x, labels
}

// Sample returns sample i as a batch-of-one tensor with its label.
func (d *Dataset) Sample(i int) (*tensor.Tensor, int) {
	x, labels := d.Batch([]int{i})
	return x, labels[0]
}

// Batches splits the dataset sequentially into batches of size n (last batch
// may be smaller). Used by evaluation loops.
func (d *Dataset) Batches(n int) ([]*tensor.Tensor, [][]int) {
	var xs []*tensor.Tensor
	var ys [][]int
	for start := 0; start < d.Len(); start += n {
		end := start + n
		if end > d.Len() {
			end = d.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y := d.Batch(idx)
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// Perm returns a deterministic permutation of sample indices for one epoch.
func (d *Dataset) Perm(rng *rand.Rand) []int {
	return rng.Perm(d.Len())
}

// Shard returns the i-th of n strided views over an epoch order: the
// elements perm[i], perm[i+n], perm[i+2n], … This is the deterministic
// sharded sampler of the replicated-pipeline cluster (core.Cluster routes
// sample g to replica g mod n, so replica i trains on exactly Shard(perm, i,
// n)). The n shards of one perm are pairwise disjoint, their union is
// exactly perm, and their sizes differ by at most one — the partition
// properties TestShardPartition pins. Shard never aliases perm's storage.
func Shard(perm []int, i, n int) []int {
	if n < 1 {
		panic(fmt.Sprintf("data: Shard with %d shards, want ≥ 1", n))
	}
	if i < 0 || i >= n {
		panic(fmt.Sprintf("data: Shard index %d out of range [0,%d)", i, n))
	}
	out := make([]int, 0, (len(perm)-i+n-1)/n)
	for j := i; j < len(perm); j += n {
		out = append(out, perm[j])
	}
	return out
}

// ImageConfig parameterizes the synthetic image generator.
type ImageConfig struct {
	Classes    int
	Channels   int
	Size       int // images are Size x Size
	Train      int // number of training samples
	Test       int // number of test samples
	NoiseStd   float64
	MaxShift   int     // prototype translation range in pixels
	AmpJitter  float64 // multiplicative amplitude jitter
	Components int     // sinusoid components per prototype channel
	Seed       int64
}

// CIFAR10Like returns the configuration standing in for CIFAR-10 at a given
// spatial size and sample budget. The defaults are sized so a 1-core CPU can
// run the Table 1 sweeps; cmd/experiments -full scales them up.
func CIFAR10Like(size, train, test int, seed int64) ImageConfig {
	return ImageConfig{
		Classes: 10, Channels: 3, Size: size, Train: train, Test: test,
		NoiseStd: 0.35, MaxShift: 2, AmpJitter: 0.25, Components: 6, Seed: seed,
	}
}

// ImageNetLike is the deeper-pipeline analogue with more classes.
func ImageNetLike(size, train, test int, seed int64) ImageConfig {
	return ImageConfig{
		Classes: 20, Channels: 3, Size: size, Train: train, Test: test,
		NoiseStd: 0.35, MaxShift: 2, AmpJitter: 0.25, Components: 8, Seed: seed,
	}
}

// prototype is a smooth random field built from low-frequency sinusoids, so
// class identity is carried by spatial structure (not just mean intensity)
// and convolutions genuinely help.
type prototype struct {
	amp, fx, fy, phase [][]float64 // [channel][component]
}

func newPrototype(cfg ImageConfig, rng *rand.Rand) *prototype {
	p := &prototype{}
	for c := 0; c < cfg.Channels; c++ {
		var amp, fx, fy, ph []float64
		for k := 0; k < cfg.Components; k++ {
			amp = append(amp, 0.4+rng.Float64())
			fx = append(fx, float64(rng.Intn(4))-1.5)
			fy = append(fy, float64(rng.Intn(4))-1.5)
			ph = append(ph, rng.Float64()*2*math.Pi)
		}
		p.amp = append(p.amp, amp)
		p.fx = append(p.fx, fx)
		p.fy = append(p.fy, fy)
		p.phase = append(p.phase, ph)
	}
	return p
}

// render evaluates the prototype at a pixel with a sub-pixel shift.
func (p *prototype) render(c int, x, y, dx, dy, size float64) float64 {
	v := 0.0
	for k := range p.amp[c] {
		arg := 2*math.Pi*(p.fx[c][k]*(x+dx)+p.fy[c][k]*(y+dy))/size + p.phase[c][k]
		v += p.amp[c][k] * math.Sin(arg)
	}
	return v / math.Sqrt(float64(len(p.amp[c])))
}

// GenerateImages builds train and test datasets from the configuration.
// Everything is deterministic in cfg.Seed.
func GenerateImages(cfg ImageConfig) (train, test *Dataset) {
	if cfg.Classes < 2 || cfg.Size < 4 {
		panic(fmt.Sprintf("data: implausible image config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([]*prototype, cfg.Classes)
	for c := range protos {
		protos[c] = newPrototype(cfg, rng)
	}
	gen := func(n int) *Dataset {
		d := &Dataset{
			Shape:   []int{cfg.Channels, cfg.Size, cfg.Size},
			Classes: cfg.Classes,
		}
		for i := 0; i < n; i++ {
			label := i % cfg.Classes // balanced classes
			dx := float64(rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift)
			dy := float64(rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift)
			amp := 1 + (rng.Float64()*2-1)*cfg.AmpJitter
			img := make([]float64, cfg.Channels*cfg.Size*cfg.Size)
			p := protos[label]
			idx := 0
			for c := 0; c < cfg.Channels; c++ {
				for y := 0; y < cfg.Size; y++ {
					for x := 0; x < cfg.Size; x++ {
						img[idx] = amp*p.render(c, float64(x), float64(y), dx, dy, float64(cfg.Size)) +
							rng.NormFloat64()*cfg.NoiseStd
						idx++
					}
				}
			}
			d.Samples = append(d.Samples, img)
			d.Labels = append(d.Labels, label)
		}
		return d
	}
	return gen(cfg.Train), gen(cfg.Test)
}

// GaussianBlobs returns a dim-dimensional classification dataset with the
// class means placed on random directions at the given radius. It is the
// fast workload for delay/momentum sweeps (Figs. 10, 13, 14 analogues).
func GaussianBlobs(dim, classes, train, test int, radius, noise float64, seed int64) (trainSet, testSet *Dataset) {
	rng := rand.New(rand.NewSource(seed))
	means := make([][]float64, classes)
	for c := range means {
		v := make([]float64, dim)
		norm := 0.0
		for i := range v {
			v[i] = rng.NormFloat64()
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] = v[i] / norm * radius
		}
		means[c] = v
	}
	gen := func(n int) *Dataset {
		d := &Dataset{Shape: []int{dim}, Classes: classes}
		for i := 0; i < n; i++ {
			label := i % classes
			x := make([]float64, dim)
			for j := range x {
				x[j] = means[label][j] + rng.NormFloat64()*noise
			}
			d.Samples = append(d.Samples, x)
			d.Labels = append(d.Labels, label)
		}
		return d
	}
	return gen(train), gen(test)
}

// TwoSpirals returns the classic two-spiral binary task embedded in 2-D,
// a non-linearly-separable workload for the quickstart example.
func TwoSpirals(n int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Shape: []int{2}, Classes: 2}
	for i := 0; i < n; i++ {
		label := i % 2
		t := 0.5 + 3*math.Pi*rng.Float64()
		r := t / (3 * math.Pi)
		sign := 1.0
		if label == 1 {
			sign = -1
		}
		x := sign*r*math.Cos(t) + rng.NormFloat64()*noise
		y := sign*r*math.Sin(t) + rng.NormFloat64()*noise
		d.Samples = append(d.Samples, []float64{x, y})
		d.Labels = append(d.Labels, label)
	}
	return d
}

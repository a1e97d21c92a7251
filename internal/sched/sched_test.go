package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	s := Constant{Base: 0.1}
	if s.LR(0) != 0.1 || s.LR(1000) != 0.1 {
		t.Fatal("constant schedule varies")
	}
}

func TestMultiStep(t *testing.T) {
	s := MultiStep{Base: 1, Milestones: []int{10, 20}, Gamma: 0.1}
	cases := []struct {
		step int
		want float64
	}{{0, 1}, {9, 1}, {10, 0.1}, {19, 0.1}, {20, 0.01}, {100, 0.01}}
	for _, c := range cases {
		if got := s.LR(c.step); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("LR(%d) = %v, want %v", c.step, got, c.want)
		}
	}
}

func TestWarmup(t *testing.T) {
	s := Warmup{Inner: Constant{Base: 1}, Steps: 4}
	want := []float64{0.25, 0.5, 0.75, 1, 1, 1}
	for i, w := range want {
		if got := s.LR(i); math.Abs(got-w) > 1e-12 {
			t.Fatalf("warmup LR(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestWarmupComposesWithMultiStep(t *testing.T) {
	s := Warmup{Inner: MultiStep{Base: 1, Milestones: []int{8}, Gamma: 0.5}, Steps: 2}
	if s.LR(0) != 0.5 || s.LR(2) != 1 || s.LR(8) != 0.5 {
		t.Fatalf("composition wrong: %v %v %v", s.LR(0), s.LR(2), s.LR(8))
	}
}

func TestCosine(t *testing.T) {
	s := Cosine{Base: 2, Total: 100}
	if math.Abs(s.LR(0)-2) > 1e-12 {
		t.Fatalf("cosine start %v", s.LR(0))
	}
	if math.Abs(s.LR(50)-1) > 1e-12 {
		t.Fatalf("cosine mid %v", s.LR(50))
	}
	if s.LR(100) != 0 || s.LR(200) != 0 {
		t.Fatal("cosine end must be 0")
	}
}

// Property: cosine is monotone non-increasing.
func TestCosineMonotoneProperty(t *testing.T) {
	s := Cosine{Base: 1, Total: 64}
	f := func(a, b uint8) bool {
		i, j := int(a)%65, int(b)%65
		if i > j {
			i, j = j, i
		}
		return s.LR(i) >= s.LR(j)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Inner: Constant{Base: 0.5}, Factor: 0.1}
	if math.Abs(s.LR(3)-0.05) > 1e-15 {
		t.Fatalf("scaled LR %v", s.LR(3))
	}
}

// Cosine decays the base rate to zero over Total steps following a half
// cosine.
type Cosine struct {
	Base  float64
	Total int
}

// LR implements Schedule.
func (c Cosine) LR(step int) float64 {
	if step >= c.Total {
		return 0
	}
	return c.Base * 0.5 * (1 + math.Cos(math.Pi*float64(step)/float64(c.Total)))
}

// Scaled wraps a schedule, multiplying every rate by Factor. It applies the
// Eq. 9 learning-rate scaling to a whole schedule at once.
type Scaled struct {
	Inner  Schedule
	Factor float64
}

// LR implements Schedule.
func (s Scaled) LR(step int) float64 { return s.Inner.LR(step) * s.Factor }

// Package sampling implements QAWS's input-criticality sampling: the three
// sampling mechanisms of Algorithms 3–5 (striding, uniform random,
// reduction) and the two criticality metrics the paper adopts from IRA's
// input evaluation — data range and standard deviation within the sampled
// region (§3.5).
package sampling

import (
	"fmt"
	"math/rand"

	"shmt/internal/tensor"
)

// Method selects one of the paper's three sampling mechanisms.
type Method int

const (
	// Striding samples every s-th element (Algorithm 3). Suffix "S" in the
	// paper's QAWS-XS policy names.
	Striding Method = iota
	// UniformRandom samples N uniformly random elements (Algorithm 4).
	// Suffix "U".
	UniformRandom
	// Reduction walks every dimension with step s (Algorithm 5). Suffix "R";
	// the highest-overhead mechanism.
	Reduction
)

func (m Method) String() string {
	switch m {
	case Striding:
		return "striding"
	case UniformRandom:
		return "uniform"
	case Reduction:
		return "reduction"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Sampler draws samples from data partitions at a configured rate.
type Sampler struct {
	Method Method
	// Rate is the portion of the raw dataset taken as samples (the paper
	// sweeps 2^-21 … 2^-14 in Fig. 9; 2^-15 is the recommended knee).
	Rate float64
	// Scale ≥ 1 is the virtual-platform factor: a partition of n real
	// elements stands in for n×Scale virtual elements, so the sampler draws
	// n×Rate×Scale samples (capped at n) and the cost model charges the
	// virtual touch count. 0 or 1 means unscaled.
	Scale float64
	rng   *rand.Rand
}

// New creates a sampler. Rate is clamped to (0, 1]; seed feeds the uniform
// random mechanism so runs are reproducible.
func New(m Method, rate float64, seed int64) *Sampler {
	if rate <= 0 {
		rate = 1.0 / (1 << 15)
	}
	if rate > 1 {
		rate = 1
	}
	return &Sampler{Method: m, Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

func (s *Sampler) scale() float64 {
	if s.Scale < 1 {
		return 1
	}
	return s.Scale
}

// numSamples returns how many samples the rate implies for n real elements
// (standing in for n×Scale virtual ones), at least 1 and at most n.
func (s *Sampler) numSamples(n int) int {
	k := int(float64(n) * s.Rate * s.scale())
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// SampleRegion draws from region reg of matrix m. Striding and uniform
// sampling treat the region as a flat sequence; reduction (Algorithm 5)
// walks both dimensions with the same step, which visits more points and is
// the paper's costliest mechanism.
func (s *Sampler) SampleRegion(m *tensor.Matrix, reg tensor.Region) []float64 {
	n := reg.Len()
	if n == 0 {
		return nil
	}
	k := s.numSamples(n)
	out := make([]float64, 0, k)
	switch s.Method {
	case Striding:
		step := oddStep(n, k)
		for i := 0; i < k; i++ {
			idx := (i * step) % n
			out = append(out, m.At(reg.Row+idx/reg.Width, reg.Col+idx%reg.Width))
		}
	case UniformRandom:
		for i := 0; i < k; i++ {
			idx := s.rng.Intn(n)
			out = append(out, m.At(reg.Row+idx/reg.Width, reg.Col+idx%reg.Width))
		}
	case Reduction:
		// Two-dimensional strided walk: step chosen so ~k points are kept
		// per dimension pass; the paper's reduction pass touches the full
		// lattice, so the cost model charges it more (see CostSamples).
		step := intSqrt(n / k)
		if step < 1 {
			step = 1
		}
		for i := 0; i < reg.Height; i += step {
			for j := 0; j < reg.Width; j += step {
				out = append(out, m.At(reg.Row+i, reg.Col+j))
			}
		}
	}
	return out
}

// CostSamples returns how many memory touches the sampling pass performs for
// a region of n elements — the input to the scheduler's overhead accounting.
// Reduction touches a denser lattice than it keeps, which is why the paper
// finds it the slowest (QAWS-?R bars in Fig. 6).
func (s *Sampler) CostSamples(n int) int {
	k := s.numSamples(n)
	if s.Method == Reduction {
		// The virtual lattice walk touches ~sqrt(virtualN x k) points.
		virtN := float64(n) * s.scale()
		c := intSqrt(int(virtN * float64(k)))
		if c < k {
			c = k
		}
		return c
	}
	return k
}

// Criticality summarises sampled values into the scalar criticality QAWS
// ranks by: the paper uses data range and standard deviation; we combine
// them as range + 2*std so either wide outliers or broad spread raise
// criticality. Empty samples yield zero.
func Criticality(samples []float64) float64 {
	st := tensor.Summarize(samples)
	return st.Range() + 2*st.Std
}

// oddStep derives the striding step for k samples over n elements, forced
// odd (and ≥1) to avoid column lock-in on power-of-two widths.
func oddStep(n, k int) int {
	step := n / k
	if step < 1 {
		return 1
	}
	if step%2 == 0 {
		step--
	}
	if step < 1 {
		step = 1
	}
	return step
}

func intSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

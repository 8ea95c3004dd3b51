package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"shmt/internal/tensor"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// sampleRow draws from data laid out as one 1×n region, the flat sequence
// striding and uniform sampling walk.
func sampleRow(s *Sampler, data []float64) []float64 {
	m, err := tensor.FromSlice(1, len(data), data)
	if err != nil {
		panic(err)
	}
	return s.SampleRegion(m, tensor.Region{Height: 1, Width: len(data)})
}

func TestMethodNamesAndSuffixes(t *testing.T) {
	// The paper's policy suffixes (QAWS-TS, -TU, -TR) are the names' initials.
	for m, want := range map[Method]string{Striding: "striding", UniformRandom: "uniform", Reduction: "reduction"} {
		if m.String() != want {
			t.Errorf("%d: name %q want %q", int(m), m.String(), want)
		}
	}
	if Method(99).String() != "Method(99)" {
		t.Fatal("unknown name wrong")
	}
}

func TestNewClampsRate(t *testing.T) {
	if s := New(Striding, -1, 1); s.Rate != 1.0/(1<<15) {
		t.Fatalf("default rate = %g", s.Rate)
	}
	if s := New(Striding, 2, 1); s.Rate != 1 {
		t.Fatalf("clamped rate = %g", s.Rate)
	}
}

func TestSampleRegionCounts(t *testing.T) {
	s := New(Striding, 0.25, 1)
	got := sampleRow(s, seq(100))
	if len(got) != 25 {
		t.Fatalf("striding samples = %d want 25", len(got))
	}
	u := New(UniformRandom, 0.1, 1)
	if got := sampleRow(u, seq(100)); len(got) != 10 {
		t.Fatalf("uniform samples = %d want 10", len(got))
	}
	if got := s.SampleRegion(tensor.NewMatrix(0, 0), tensor.Region{}); got != nil {
		t.Fatal("empty input should yield nil")
	}
	// Rate below 1/n still yields one sample.
	tiny := New(Striding, 1e-9, 1)
	if got := sampleRow(tiny, seq(10)); len(got) != 1 {
		t.Fatalf("minimum samples = %d want 1", len(got))
	}
}

func TestStridingSamplesAreRealElements(t *testing.T) {
	s := New(Striding, 0.1, 1)
	data := seq(50)
	for _, v := range sampleRow(s, data) {
		if v < 0 || v > 49 || v != math.Trunc(v) {
			t.Fatalf("sampled value %g not from input", v)
		}
	}
}

func TestUniformDeterministicPerSeed(t *testing.T) {
	a := sampleRow(New(UniformRandom, 0.2, 7), seq(100))
	b := sampleRow(New(UniformRandom, 0.2, 7), seq(100))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce samples")
		}
	}
}

func TestSampleRegionStridingCoversBothDimensions(t *testing.T) {
	// Column-varying matrix: a sampler stuck in one column sees a constant.
	m := tensor.NewMatrix(64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			m.Set(i, j, float64(j))
		}
	}
	s := New(Striding, 8.0/(64*64), 1) // 8 samples
	vals := s.SampleRegion(m, tensor.Region{Height: 64, Width: 64})
	st := tensor.Summarize(vals)
	if st.Range() == 0 {
		t.Fatal("striding locked onto a single column (degenerate stride)")
	}
}

func TestSampleRegionReductionLattice(t *testing.T) {
	m := tensor.NewMatrix(32, 32)
	s := New(Reduction, 4.0/(32*32), 1)
	vals := s.SampleRegion(m, tensor.Region{Height: 32, Width: 32})
	if len(vals) == 0 {
		t.Fatal("reduction produced no samples")
	}
}

func TestCostSamplesOrdering(t *testing.T) {
	n := 1 << 16
	str := New(Striding, 1.0/(1<<11), 1)
	red := New(Reduction, 1.0/(1<<11), 1)
	if red.CostSamples(n) <= str.CostSamples(n) {
		t.Fatalf("reduction cost %d should exceed striding %d (the paper's slowest mechanism)",
			red.CostSamples(n), str.CostSamples(n))
	}
}

func TestCriticalityMonotone(t *testing.T) {
	narrow := []float64{1, 1.1, 0.9, 1.05}
	wide := []float64{1, 9, -7, 1.05}
	if Criticality(wide) <= Criticality(narrow) {
		t.Fatal("wider distribution should rank more critical")
	}
	if Criticality(nil) != 0 {
		t.Fatal("empty criticality should be 0")
	}
}

func TestOddStepProperties(t *testing.T) {
	f := func(n, k int) bool {
		if n <= 0 || k <= 0 {
			return true
		}
		n, k = n%100000+1, k%1000+1
		s := oddStep(n, k)
		return s >= 1 && (s == 1 || s%2 == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: sample count never exceeds the data size, and criticality of
// samples is bounded by the criticality of the full data (range of a subset
// cannot exceed the range of the set; 2σ subset can exceed σ-wise, so check
// range only).
func TestPropertySubsetRange(t *testing.T) {
	f := func(seed int64) bool {
		s := New(Striding, 0.3, seed)
		data := seq(200)
		vals := sampleRow(s, data)
		if len(vals) > len(data) {
			return false
		}
		st := tensor.Summarize(vals)
		full := tensor.Summarize(data)
		return st.Range() <= full.Range()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

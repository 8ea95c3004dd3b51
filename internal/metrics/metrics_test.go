package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAPEKnown(t *testing.T) {
	got, err := MAPE([]float64{2, 4}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	// |1-2|/2 = 0.5, |5-4|/4 = 0.25 -> mean 0.375.
	if math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("MAPE = %g want 0.375", got)
	}
}

func TestMAPEIdenticalIsZero(t *testing.T) {
	x := []float64{1, -2, 0, 7}
	got, err := MAPE(x, x)
	if err != nil || got != 0 {
		t.Fatalf("MAPE = %g err %v", got, err)
	}
}

func TestMAPENearZeroGuard(t *testing.T) {
	got, err := MAPE([]float64{0}, []float64{1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("MAPE not guarded: %g", got)
	}
	// Near-zero references still blow the metric up, as in the paper (§5.3).
	if got < 0.05 {
		t.Fatalf("near-zero reference should penalize heavily, got %g", got)
	}
}

func TestMAPEErrors(t *testing.T) {
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if got, err := MAPE(nil, nil); err != nil || got != 0 {
		t.Fatalf("empty MAPE = %g err %v", got, err)
	}
}

func TestMAPENonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		ref := make([]float64, n)
		ap := make([]float64, n)
		for i := range ref {
			ref[i] = r.NormFloat64() * 10
			ap[i] = r.NormFloat64() * 10
		}
		got, err := MAPE(ref, ap)
		return err == nil && got >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSSIMIdenticalIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := make([]float64, 32*32)
	for i := range img {
		img[i] = rng.Float64() * 255
	}
	got, err := SSIM(32, 32, img, img)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("SSIM(x,x) = %g want 1", got)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := make([]float64, 64*64)
	for i := range ref {
		ref[i] = 128 + 64*math.Sin(float64(i)/50)
	}
	mild := make([]float64, len(ref))
	heavy := make([]float64, len(ref))
	for i := range ref {
		n := rng.NormFloat64()
		mild[i] = ref[i] + 2*n
		heavy[i] = ref[i] + 40*n
	}
	sMild, _ := SSIM(64, 64, ref, mild)
	sHeavy, _ := SSIM(64, 64, ref, heavy)
	if !(sHeavy < sMild && sMild < 1) {
		t.Fatalf("SSIM ordering violated: mild=%g heavy=%g", sMild, sHeavy)
	}
}

func TestSSIMBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16
		ref := make([]float64, n*n)
		ap := make([]float64, n*n)
		for i := range ref {
			ref[i] = r.Float64() * 100
			ap[i] = r.Float64() * 100
		}
		s, err := SSIM(n, n, ref, ap)
		return err == nil && s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSSIMSmallImage(t *testing.T) {
	// Images smaller than one window fall back to a single-window SSIM.
	ref := []float64{1, 2, 3, 4}
	got, err := SSIM(2, 2, ref, ref)
	if err != nil || math.Abs(got-1) > 1e-9 {
		t.Fatalf("small SSIM = %g err %v", got, err)
	}
}

func TestSSIMErrors(t *testing.T) {
	if _, err := SSIM(2, 2, []float64{1}, []float64{1}); err == nil {
		t.Fatal("shape mismatch should error")
	}
	if _, err := SSIM(2, 2, make([]float64, 4), make([]float64, 3)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(2, 1) != 2 {
		t.Fatal("speedup wrong")
	}
	if Speedup(0, 1) != 0 || Speedup(1, 0) != 0 {
		t.Fatal("degenerate speedups should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %g want 2", got)
	}
	// Zero/negative entries are skipped.
	got = GeoMean([]float64{0, -1, 4})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean with skips = %g want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

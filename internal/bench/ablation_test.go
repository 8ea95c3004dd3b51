package bench

import (
	"strings"
	"testing"
)

func TestAblationGranularity(t *testing.T) {
	rows, err := AblationGranularity(smallOpts(), []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("degenerate speedup at %d partitions", r.Partitions)
		}
	}
	var sb strings.Builder
	AblationGranularityTable(rows).Render(&sb)
	if !strings.Contains(sb.String(), "16") {
		t.Fatal("granularity table malformed")
	}
}

func TestAblationDoubleBuffer(t *testing.T) {
	rows, err := AblationDoubleBuffer(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Benchmarks) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Overlap helps in aggregate. (Per benchmark a one-HLOP scheduling
	// discretization can shift work between devices, so individual rows may
	// wobble a few percent either way.)
	var with, without float64
	for _, r := range rows {
		with += r.WithOverlap
		without += r.Without
		if r.WithOverlap < 0.9*r.Without {
			t.Fatalf("%s: overlap made things much worse (%g vs %g)", r.Benchmark, r.WithOverlap, r.Without)
		}
	}
	if with <= without {
		t.Fatalf("overlap should help in aggregate: %g vs %g", with, without)
	}
	var sb strings.Builder
	AblationDoubleBufferTable(rows).Render(&sb)
	if !strings.Contains(sb.String(), "GMEAN") {
		t.Fatal("double-buffer table malformed")
	}
}

func TestAblationPrefetch(t *testing.T) {
	rows, err := AblationPrefetch(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Resident || !rows[1].Resident {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if !r.Identical {
			t.Fatalf("%+v: the resident cache changed the output", r)
		}
	}
	var sb strings.Builder
	AblationPrefetchTable(rows).Render(&sb)
	if !strings.Contains(sb.String(), "bit-identical") {
		t.Fatal("prefetch table malformed")
	}
}

func TestAblationDatacenter(t *testing.T) {
	rows, err := AblationDatacenter(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A 4x-faster accelerator must not lower the geomean speedup.
	var embSum, dcSum float64
	for _, r := range rows {
		embSum += r.Embedded
		dcSum += r.Datacenter
	}
	if dcSum <= embSum {
		t.Fatalf("datacenter ratio should raise the aggregate speedup: %g vs %g", dcSum, embSum)
	}
	var sb strings.Builder
	AblationDatacenterTable(rows).Render(&sb)
	if !strings.Contains(sb.String(), "GMEAN") {
		t.Fatal("datacenter table malformed")
	}
}

func TestAblationDSP(t *testing.T) {
	rows, err := AblationDSP(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // the image benchmarks
		t.Fatalf("rows = %d", len(rows))
	}
	var s3, s4 float64
	for _, r := range rows {
		if r.ThreeDevice <= 0 || r.FourDevice <= 0 {
			t.Fatalf("%s degenerate", r.Benchmark)
		}
		s3 += r.ThreeDevice
		s4 += r.FourDevice
	}
	// A third accelerator must raise the aggregate speedup.
	if s4 <= s3 {
		t.Fatalf("DSP should add throughput: 3-dev %g vs 4-dev %g", s3, s4)
	}
	var sb strings.Builder
	AblationDSPTable(rows).Render(&sb)
	if !strings.Contains(sb.String(), "GMEAN") {
		t.Fatal("dsp table malformed")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"shmt"
	"shmt/internal/kernels"
	"shmt/internal/metrics"
)

// prepare computes what the harness needs to judge replies: the exact
// float64 result of every request (the whole input through kernels.Exec, no
// partitioning, no device rounding) and its virtual makespan under the
// GPU-baseline policy, the denominator the paper's speedups use.
func prepare(reqs []*request) error {
	gpu, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyGPUBaseline})
	if err != nil {
		return err
	}
	defer gpu.Close()
	for _, r := range reqs {
		ref, err := kernels.Exec(r.op, r.inputs, r.attrs, kernels.Exact{})
		if err != nil {
			return fmt.Errorf("reference %s: %w", r.name, err)
		}
		r.ref = ref
		res, err := gpu.ExecuteBatch(r.batch())
		if err != nil {
			return fmt.Errorf("gpu baseline %s: %w", r.name, err)
		}
		r.gpuMakespan = res.Reports[0].Makespan
	}
	return nil
}

// mapeFloor is the smallest MAPE (a fraction) that enters quality_mape_pct.
const mapeFloor = 1e-6

// verdict is the verification pass's result.
type verdict struct {
	attempted, failed int
	simSpeedup        float64 // gmean GPU-baseline makespan ÷ served makespan
	mapePct           float64 // gmean MAPE vs the exact reference, percent
	notes             []string
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// verify replays every distinct request (and two fresh shapes, where the
// workload has them) once, sequentially, through the workload's own
// deployment and checks each output two ways: its MAPE against the exact
// reference must stay within the request's frozen tolerance, and on the
// served shapes it must equal, bit for bit, what an in-process session of
// the same configuration returns for the same request. Scattered requests
// are exempt from the second check and from sim_speedup: the router gathers
// independently executed partitions and reports wall time, not virtual time,
// as their makespan.
func verify(d *deployment, reqs []*request, fresh *freshPool) (verdict, error) {
	var v verdict
	all := append([]*request(nil), reqs...)
	if fresh != nil {
		for _, s := range verifyFresh {
			r, err := fresh.request(s)
			if err != nil {
				return v, err
			}
			all = append(all, r)
		}
		if err := prepare(all[len(reqs):]); err != nil {
			return v, err
		}
	}
	var local *shmt.Session
	if d.def.shape != shapeLib {
		var err error
		if local, err = shmt.NewSession(shmt.Config{}); err != nil {
			return v, err
		}
		defer local.Close()
	}
	c := newClient(d, 0)
	defer c.close()

	var speedups, mapes []float64
	for _, r := range all {
		v.attempted++
		out, makespan, scattered, err := served(c, r)
		if err != nil {
			v.failed++
			v.notes = append(v.notes, fmt.Sprintf("%s: %v", r.name, err))
			continue
		}
		if scattered != r.scatter {
			v.notes = append(v.notes, fmt.Sprintf("%s: scattered=%v, workload expects %v", r.name, scattered, r.scatter))
		}
		mape, err := metrics.MAPE(r.ref.Data, out)
		if err != nil || math.IsNaN(mape) || mape > r.tol {
			v.failed++
			v.notes = append(v.notes, fmt.Sprintf("%s: MAPE %.4g exceeds tolerance %.4g (%v)", r.name, mape, r.tol, err))
			continue
		}
		// Below mapeFloor a MAPE is float32 rounding of a request that ran on
		// the GPU alone, and moves severalfold with the seed.
		mapes = append(mapes, 100*math.Max(mape, mapeFloor))
		if scattered {
			logf("   verify %-28s MAPE %.4g %% (tolerance %.4g %%), scattered", r.name, 100*mape, 100*r.tol)
			continue
		}
		speedups = append(speedups, r.gpuMakespan/makespan)
		logf("   verify %-28s MAPE %.4g %% (tolerance %.4g %%), virtual speedup %.4f", r.name, 100*mape, 100*r.tol, r.gpuMakespan/makespan)
		if local != nil {
			res, err := local.ExecuteBatch(r.batch())
			if err != nil {
				return v, err
			}
			if i := sameBits(res.Reports[0].Output.Data, out); i >= 0 {
				v.failed++
				v.notes = append(v.notes, fmt.Sprintf("%s: served output differs from the in-process session at element %d", r.name, i))
			}
		}
	}
	v.simSpeedup = metrics.GeoMean(speedups)
	v.mapePct = metrics.GeoMean(mapes)
	return v, nil
}

// served runs r through the deployment and returns its decoded output.
func served(c *client, r *request) (out []float64, makespan float64, scattered bool, err error) {
	rp, err := c.do(r, true)
	if err != nil {
		return nil, 0, false, err
	}
	if rp.batch != nil {
		rep := rp.batch.Reports[0]
		return rep.Output.Data, rep.Makespan, false, nil
	}
	if rp.status != http.StatusOK {
		return nil, 0, false, fmt.Errorf("http %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	var wr wireResponse
	if err := json.Unmarshal(rp.body, &wr); err != nil {
		return nil, 0, false, err
	}
	if len(wr.Output.Data) != wr.Output.Rows*wr.Output.Cols {
		return nil, 0, false, fmt.Errorf("output %dx%d carries %d values", wr.Output.Rows, wr.Output.Cols, len(wr.Output.Data))
	}
	return wr.Output.Data, wr.MakespanSeconds, rp.scatter > 0, nil
}

package shmt_test

import (
	"fmt"
	"log"
	"math/rand"

	"shmt"
	"shmt/internal/metrics"
	"shmt/internal/tensor"
	"shmt/internal/workload"
)

// paperScale is the VirtualScale that reports a side×side run at the
// latencies and energies of the paper's 8192×8192 inputs.
func paperScale(side int) float64 { return float64(8192*8192) / float64(side*side) }

// Example is the paper's running example (Fig. 4): tf.matmul lowered to one
// GEMM VOP, which the runtime decomposes into HLOPs that the GPU and the Edge
// TPU execute concurrently under quality-aware work stealing, compared with
// the GPU-only baseline the paper normalises to.
func Example() {
	const n = 512
	rng := rand.New(rand.NewSource(1))
	a, b := shmt.NewMatrix(n, n), shmt.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		b.Data[i] = rng.Float64()
	}
	gemm := func(pol shmt.PolicyName) (*shmt.Session, *shmt.Report) {
		s, err := shmt.NewSession(shmt.Config{Policy: pol, TargetPartitions: 32, VirtualScale: paperScale(n)})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := s.Execute(shmt.OpGEMM, []*shmt.Matrix{a, b}, nil)
		if err != nil {
			log.Fatal(err)
		}
		return s, rep
	}
	s, rep := gemm(shmt.PolicyQAWSTS)
	defer s.Close()
	base, baseRep := gemm(shmt.PolicyGPUBaseline)
	defer base.Close()

	fmt.Printf("devices:          %v (policy %s)\n", s.Devices(), s.PolicyName())
	fmt.Printf("C[0,0]:           %.4f\n", rep.Output.At(0, 0))
	fmt.Printf("HLOPs executed:   %d\n", rep.HLOPs)
	fmt.Printf("virtual latency:  %.2f ms\n", rep.Makespan*1e3)
	fmt.Printf("device busy time: gpu %.2f ms, tpu %.2f ms\n", rep.Busy["gpu"]*1e3, rep.Busy["tpu"]*1e3)
	fmt.Printf("energy:           %.3f J (active %.3f J + idle %.3f J)\n",
		rep.Energy.Total(), rep.Energy.Active, rep.Energy.Idle)
	fmt.Printf("speedup over GPU: %.2fx (baseline %.2f ms)\n", baseRep.Makespan/rep.Makespan, baseRep.Makespan*1e3)
	// Output:
	// devices:          [cpu gpu tpu] (policy QAWS-TS)
	// C[0,0]:           126.3220
	// HLOPs executed:   32
	// virtual latency:  250.76 ms
	// device busy time: gpu 248.96 ms, tpu 245.35 ms
	// energy:           1.306 J (active 0.549 J + idle 0.757 J)
	// speedup over GPU: 2.05x (baseline 515.21 ms)
}

// ExampleSession_Execute submits a raw VOP with its kernel attributes,
// spelled as on the wire: a 256-bin histogram over [hist_lo, hist_hi).
func ExampleSession_Execute() {
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyCPUOnly, TargetPartitions: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	m := shmt.NewMatrix(32, 32)
	for i := range m.Data {
		m.Data[i] = 0.5
	}
	rep, err := s.Execute(shmt.OpReduceHist256, []*shmt.Matrix{m}, map[string]float64{"hist_lo": 0, "hist_hi": 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d bins, bin 128 holds %.0f\n", rep.Output.Len(), rep.Output.Data[128])
	// Output: 256 bins, bin 128 holds 1024
}

// ExampleSession_ExecutePipeline is the paper's Fig. 1: a program of five
// functions run under the three execution models the figure contrasts —
// (a) conventional, each function on its best single device; (b) software
// pipelining, functions streaming chunk by chunk across devices; (c) SHMT,
// every function co-executed by all devices. Each line lists the stages as
// device/latency in ms. `shmtbench -exp fig1` prints the paper-scale table.
func ExampleSession_ExecutePipeline() {
	const side = 512
	img := workload.Image(side, side, 77)
	for i, v := range img.Data {
		if v < 1 {
			img.Data[i] = 1 // SRAD needs positive intensities
		}
	}
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 64, VirtualScale: paperScale(side)})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	stages := []shmt.Stage{
		{Name: "A despeckle", Op: shmt.OpSRAD, Attrs: map[string]float64{"lambda": 0.5, "q0sqr": 0.05}},
		{Name: "B denoise", Op: shmt.OpMeanFilter},
		{Name: "C sharpen", Op: shmt.OpLaplacian},
		{Name: "D edges", Op: shmt.OpSobel},
		{Name: "E transform", Op: shmt.OpDCT8x8},
	}
	var conventional float64
	for _, mode := range []shmt.PipelineMode{shmt.PipelineConventional, shmt.PipelineSoftware, shmt.PipelineSHMT} {
		res, err := s.ExecutePipeline(img, stages, mode)
		if err != nil {
			log.Fatal(err)
		}
		if mode == shmt.PipelineConventional {
			conventional = res.Makespan
		}
		fmt.Printf("%-18s %6.1f ms %5.2f J %5.2fx ", mode, res.Makespan*1e3, res.EnergyJoules, conventional/res.Makespan)
		for _, st := range res.Stages {
			fmt.Printf(" %s/%.1f", st.Device, st.Latency*1e3)
		}
		fmt.Println()
	}
	// Output:
	// conventional        395.5 ms  1.70 J  1.00x  tpu/79.6 gpu/90.0 gpu/68.4 gpu/99.7 tpu/57.8
	// software-pipelined  264.3 ms  1.70 J  1.50x  tpu/79.6 gpu/90.0 gpu/68.4 gpu/99.7 tpu/57.8
	// SHMT                262.6 ms  1.33 J  1.51x  shmt/56.6 shmt/66.3 shmt/44.7 shmt/54.7 shmt/40.2
}

// ExampleSession_ExecuteBatch co-schedules four tenants' VOPs in one round:
// their HLOPs share the device queues and the stealing pool, so devices do
// not idle between requests (§5.6), and the group finishes at about the cost
// of running the requests back to back.
func ExampleSession_ExecuteBatch() {
	const side = 512
	signal := workload.Mixed(side, side, workload.Profile{}, 6)
	spot := workload.Mixed(side, side, workload.Profile{Lo: 80, Hi: 120, CriticalScale: 6}, 7)
	for i, v := range spot.Data {
		if v < 1 {
			spot.Data[i] = 1
		}
	}
	reqs := []shmt.BatchRequest{
		{Op: shmt.OpSobel, Inputs: []*shmt.Matrix{workload.Image(side, side, 5)}},
		{Op: shmt.OpFFT, Inputs: []*shmt.Matrix{signal}},
		{Op: shmt.OpParabolicPDE, Inputs: []*shmt.Matrix{spot, workload.Uniform(side, side, 100, 150, 8)},
			Attrs: map[string]float64{"r": 0.02, "sigma": 0.3, "t": 1}},
		{Op: shmt.OpReduceHist256, Inputs: []*shmt.Matrix{signal}, Attrs: map[string]float64{"hist_lo": -5, "hist_hi": 6}},
	}
	// A few HLOPs per request: the sharing regime.
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 8, VirtualScale: paperScale(side)})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	var sequential float64
	for _, r := range reqs {
		rep, err := s.Execute(r.Op, r.Inputs, r.Attrs)
		if err != nil {
			log.Fatal(err)
		}
		sequential += rep.Makespan
	}
	batch, err := s.ExecuteBatch(reqs)
	if err != nil {
		log.Fatal(err)
	}
	for i, rep := range batch.Reports {
		fmt.Printf("%-14s finished at %6.1f ms (%d HLOPs)\n", reqs[i].Op, rep.Makespan*1e3, rep.HLOPs)
	}
	fmt.Printf("batch %.1f ms (%.3f J), back to back %.1f ms, ratio %.2fx\n",
		batch.Makespan*1e3, batch.Energy.Total(), sequential*1e3, sequential/batch.Makespan)
	// Output:
	// Sobel          finished at  188.0 ms (9 HLOPs)
	// FFT            finished at  201.1 ms (8 HLOPs)
	// parabolic_PDE  finished at  169.8 ms (8 HLOPs)
	// reduce_hist256 finished at  169.8 ms (8 HLOPs)
	// batch 201.1 ms (1.030 J), back to back 211.9 ms, ratio 1.05x
}

// Example_imagePipeline chains the paper's image kernels (Table 2) on one
// synthetic photograph — mean-filter denoise, Sobel edges, Laplacian detail —
// each co-executed by the GPU and the Edge TPU, with SSIM against the exact
// reference after every stage (the Fig. 8 metric; 0.95 is the "very good
// quality" bar of §5.3).
func Example_imagePipeline() {
	const side = 512
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 32, VirtualScale: paperScale(side)})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	cur := workload.Image(side, side, 42)
	var total float64
	for _, op := range []shmt.Op{shmt.OpMeanFilter, shmt.OpSobel, shmt.OpLaplacian} {
		rep, err := s.Execute(op, []*shmt.Matrix{cur}, nil)
		if err != nil {
			log.Fatal(err)
		}
		ref, err := s.Reference(op, []*shmt.Matrix{cur}, nil)
		if err != nil {
			log.Fatal(err)
		}
		ssim, err := metrics.SSIM(ref.Rows, ref.Cols, ref.Data, rep.Output.Data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %6.2f ms  ssim %.4f  gpu %.1f ms  tpu %.1f ms\n",
			op, rep.Makespan*1e3, ssim, rep.Busy["gpu"]*1e3, rep.Busy["tpu"]*1e3)
		total += rep.Makespan
		cur = rep.Output
	}
	fmt.Printf("pipeline %.2f ms virtual\n", total*1e3)
	// Output:
	// Mean_Filter  64.06 ms  ssim 0.9999  gpu 59.6 ms  tpu 61.7 ms
	// Sobel        52.98 ms  ssim 0.9993  gpu 50.3 ms  tpu 50.6 ms
	// Laplacian    43.74 ms  ssim 0.9997  gpu 39.4 ms  tpu 41.4 ms
	// pipeline 160.78 ms virtual
}

// Example_medical despeckles a synthetic ultrasound frame by iterative SRAD
// (the paper's medical-imaging benchmark, from Rodinia's SRAD). Each
// diffusion step is one VOP co-executed by the GPU and the Edge TPU; the
// speckle is the deviation inside a homogeneous patch, and MAPE and SSIM
// compare each step with the exact CPU chain.
func Example_medical() {
	const side = 512
	img := workload.Image(side, side, 99)
	for i, v := range img.Data {
		if v < 1 {
			img.Data[i] = 1 // SRAD needs strictly positive intensities
		}
	}
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 32, VirtualScale: paperScale(side)})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	exact, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyCPUOnly, TargetPartitions: 32})
	if err != nil {
		log.Fatal(err)
	}
	defer exact.Close()
	speckle := func(m *shmt.Matrix) float64 {
		blk, err := tensor.CopyOut(m, tensor.Region{Row: 8, Col: 8, Height: 48, Width: 48})
		if err != nil {
			log.Fatal(err)
		}
		return tensor.Summarize(blk.Data).Std
	}

	attrs := map[string]float64{"lambda": 0.5, "q0sqr": 0.05}
	cur, ref := img, img
	var total, joules float64
	for it := 1; it <= 4; it++ {
		rep, err := s.Execute(shmt.OpSRAD, []*shmt.Matrix{cur}, attrs)
		if err != nil {
			log.Fatal(err)
		}
		refRep, err := exact.Execute(shmt.OpSRAD, []*shmt.Matrix{ref}, attrs)
		if err != nil {
			log.Fatal(err)
		}
		cur, ref = rep.Output, refRep.Output
		mape, _ := metrics.MAPE(ref.Data, cur.Data)
		ssim, _ := metrics.SSIM(side, side, ref.Data, cur.Data)
		fmt.Printf("iter %d %6.2f ms  speckle %.3f  mape %.3f%%  ssim %.4f\n",
			it, rep.Makespan*1e3, speckle(cur), 100*mape, ssim)
		total += rep.Makespan
		joules += rep.Energy.Total()
	}
	fmt.Printf("4 iterations in %.2f ms virtual, %.3f J, speckle %.3f -> %.3f\n", total*1e3, joules, speckle(img), speckle(cur))
	// Output:
	// iter 1  53.92 ms  speckle 1.442  mape 0.092%  ssim 0.9994
	// iter 2  52.09 ms  speckle 1.374  mape 0.108%  ssim 0.9994
	// iter 3  52.09 ms  speckle 1.349  mape 0.128%  ssim 0.9993
	// iter 4  52.09 ms  speckle 1.347  mape 0.158%  ssim 0.9993
	// 4 iterations in 210.20 ms virtual, 1.092 J, speckle 1.703 -> 1.347
}

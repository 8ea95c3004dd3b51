package shmt_test

import (
	"fmt"
	"log"

	"shmt"
)

// ExampleSession_MatMul is the paper's Fig. 4 scenario: a GEMM offloaded to
// the SHMT virtual device and co-executed by the GPU and the Edge TPU.
func ExampleSession_MatMul() {
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	a := shmt.NewMatrix(8, 8)
	b := shmt.NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, i, 2) // A = 2I
		for j := 0; j < 8; j++ {
			b.Set(i, j, 1)
		}
	}
	c, rep, err := s.MatMul(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C[0,0] = %.2f, computed as %d HLOPs\n", c.At(0, 0), rep.HLOPs)
	// Output: C[0,0] = 2.00, computed as 4 HLOPs
}

// ExampleSession_Execute submits a raw VOP with kernel attributes.
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
	rep, err := s.Execute(shmt.OpReduceSum, []*shmt.Matrix{m}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum = %.1f\n", rep.Output.Data[0])
	// Output: sum = 512.0
}

// ExampleSession_ExecutePipeline runs a two-function program under the SHMT
// execution model of the paper's Fig. 1(c).
func ExampleSession_ExecutePipeline() {
	s, err := shmt.NewSession(shmt.Config{TargetPartitions: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	img := shmt.NewMatrix(16, 16)
	img.Set(8, 8, 100) // a single bright pixel
	res, err := s.ExecutePipeline(img, []shmt.Stage{
		{Name: "blur", Op: shmt.OpMeanFilter},
		{Name: "edges", Op: shmt.OpSobel},
	}, shmt.PipelineConventional)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d stages, final %dx%d\n", len(res.Stages), res.Output.Rows, res.Output.Cols)
	// Output: 2 stages, final 16x16
}

// ExampleSession_ExecuteBatch co-schedules two independent requests over the
// same device queues.
func ExampleSession_ExecuteBatch() {
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyCPUOnly, TargetPartitions: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	m := shmt.NewMatrix(16, 16)
	for i := range m.Data {
		m.Data[i] = 1
	}
	res, err := s.ExecuteBatch([]shmt.BatchRequest{
		{Op: shmt.OpRelu, Inputs: []*shmt.Matrix{m}},
		{Op: shmt.OpReduceMax, Inputs: []*shmt.Matrix{m}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d requests, max = %.0f\n", len(res.Reports), res.Reports[1].Output.Data[0])
	// Output: 2 requests, max = 1
}

// Package shmt implements Simultaneous and Heterogeneous Multithreading
// (SHMT), the programming and execution model of Hsu & Tseng (MICRO 2023)
// that co-executes the *same* compute kernel across heterogeneous processing
// units — CPU, GPU, and Edge TPU — instead of delegating each kernel to a
// single "best" device.
//
// A program submits virtual operations (VOPs) to a Session, which plays the
// role of the paper's virtual hardware device. The runtime partitions each
// VOP into high-level operations (HLOPs), distributes them across per-device
// queues under a scheduling policy, balances load by quality-constrained
// work stealing, casts data to each device's native precision, and
// aggregates the partitions back into one result:
//
//	s, _ := shmt.NewSession(shmt.Config{})
//	defer s.Close()
//	rep, _ := s.Execute(shmt.OpGEMM, []*shmt.Matrix{a, b}, nil)
//	fmt.Printf("GEMM in %.1f ms virtual, %.1f J\n", rep.Makespan*1e3, rep.Energy.Total())
//
// The zero Config runs DefaultPolicy, QAWS-TS/adaptive: the paper's QAWS-TS
// co-executing only where it pays. Before planning a lone VOP it prices,
// from shapes and the cost model alone, the VOP run whole on its most
// accurate device against QAWS-TS's partitioned plan, and runs the cheaper,
// so small VOPs whose per-HLOP costs outweigh a second device (the paper's
// Fig. 12) run on the GPU alone. A batch of several VOPs runs as QAWS-TS.
// The paper's own policies are the other PolicyName values.
//
// Because the paper's platform (Jetson Nano GPU + Coral Edge TPU) is
// hardware this library cannot assume, the devices here are faithful
// simulations: the GPU path computes in real FP32, the Edge TPU path in real
// INT8 quantized arithmetic (so result quality is measured, not modelled),
// and latency/energy come from a discrete-event cost model calibrated to the
// paper's measurements. See DESIGN.md for the substitution table and
// EXPERIMENTS.md for paper-vs-measured results.
package shmt

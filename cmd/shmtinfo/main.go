// Command shmtinfo describes the simulated SHMT platform: the device set
// and its calibration, the VOP table (Table 1), the benchmark table
// (Table 2), and each device's HLOP coverage.
//
// Usage:
//
//	shmtinfo            # everything
//	shmtinfo -vops      # Table 1 only
//	shmtinfo -benchmarks
//	shmtinfo -devices
//	shmtinfo -calibration
package main

import (
	"flag"
	"fmt"
	"os"

	"shmt/internal/bench"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/energy"
	"shmt/internal/lanes"
	"shmt/internal/vop"
)

func main() {
	var (
		vops        = flag.Bool("vops", false, "print the VOP table (Table 1)")
		benchmarks  = flag.Bool("benchmarks", false, "print the benchmark table (Table 2)")
		devices     = flag.Bool("devices", false, "print the device inventory")
		calibration = flag.Bool("calibration", false, "print the cost-model calibration")
	)
	flag.Parse()
	all := !*vops && !*benchmarks && !*devices && !*calibration

	if all || *devices {
		printDevices()
	}
	if all || *vops {
		bench.Table1().Render(os.Stdout)
	}
	if all || *benchmarks {
		bench.Table2().Render(os.Stdout)
	}
	if all || *calibration {
		printCalibration()
	}
}

func printDevices() {
	devs := []device.Device{cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}), dsp.New(dsp.Config{})}
	model := energy.DefaultModel()
	fmt.Println("== Devices (the prototype platform of §4.1, plus the §2.1 DSP extension) ==")
	for _, d := range devs {
		supported := 0
		for _, op := range vop.All() {
			if d.Supports(op) {
				supported++
			}
		}
		mem := "shared host LPDDR4"
		if d.MemoryBytes() > 0 {
			mem = fmt.Sprintf("%d MiB private", d.MemoryBytes()>>20)
		}
		fmt.Printf("%-4s accuracy-rank %d, %2d/%d HLOPs, dispatch %6.0f µs, link %5.1f GB/s, mem %s, active +%.2f W\n",
			d.Name(), d.AccuracyRank(), supported, len(vop.All()),
			d.DispatchOverhead()*1e6, d.Link().BandwidthBps/1e9, mem,
			model.Devices[d.Name()].Active)
	}
	fmt.Printf("peak power: idle %.2f W, GPU baseline %.2f W, SHMT %.2f W (§5.5)\n",
		model.PeakPower(nil), model.PeakPower([]string{"gpu"}), model.PeakPower([]string{"gpu", "tpu"}))
	fmt.Println("host vector lanes (each checked against its Go twin at start; off: the twin runs):")
	for _, r := range lanes.Rows() {
		state := "off"
		if r.On {
			state = "on"
		}
		fmt.Printf("  %-15s %-8s %s\n", r.Name, r.Needs, state)
	}
	fmt.Println()
}

func printCalibration() {
	fmt.Println("== Cost-model calibration (Fig. 2 ratios; see internal/device/calibration.go) ==")
	fmt.Printf("%-16s %14s %10s %10s %12s\n", "VOP", "GPU elems/s", "TPU ratio", "CPU ratio", "stage factor")
	for _, op := range vop.All() {
		c := device.Cost(op)
		fmt.Printf("%-16s %14.3g %10.2f %10.3f %12.2f\n",
			op, c.GPUThroughput, c.TPURatio, c.CPURatio, c.StageFactor)
	}
	fmt.Println()
}

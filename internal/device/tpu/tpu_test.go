package tpu

import (
	"errors"
	"math"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/kernels"
	"shmt/internal/quant"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func TestIdentity(t *testing.T) {
	d := New(Config{})
	if d.Name() != "tpu" || d.Kind() != device.TPU {
		t.Fatal("identity wrong")
	}
	if d.AccuracyRank() <= 0 {
		t.Fatal("TPU must rank below exact devices")
	}
	if d.ElemBytes() != 1 {
		t.Fatal("INT8 element width expected")
	}
	if d.MemoryBytes() != 8<<20 {
		t.Fatalf("default memory = %d want 8 MiB", d.MemoryBytes())
	}
	for _, op := range vop.All() {
		if !d.Supports(op) {
			t.Fatalf("TPU should support %s (NPU mode)", op)
		}
	}
}

func TestExecuteIntroducesBoundedError(t *testing.T) {
	d := New(Config{})
	ref := cpu.New(1)
	in := workload.Uniform(64, 64, 0, 1, 3)
	got, err := d.ExecuteInto(vop.OpSobel, []*tensor.Matrix{in}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.ExecuteInto(vop.OpSobel, []*tensor.Matrix{in}, nil, nil)
	var maxd, diffs float64
	for i := range got.Data {
		dd := math.Abs(got.Data[i] - want.Data[i])
		if dd > maxd {
			maxd = dd
		}
		diffs += dd
	}
	if diffs == 0 {
		t.Fatal("INT8 execution should differ from exact")
	}
	// Error must stay commensurate with the quantization grid, not blow up.
	if maxd > 0.5 {
		t.Fatalf("max error %g implausibly large for unit-range input", maxd)
	}
}

// The NPU mode is the kernel run over INT8-staged inputs with an INT8
// requantization at every stage, and nothing else: for every opcode outside
// matrix mode the device's output is bit-equal to that, inputs gathered from
// strided views included. A second rounder cannot slip in unnoticed.
func TestNPUModeIsInt8Exec(t *testing.T) {
	d := New(Config{})
	for _, op := range vop.All() {
		if matrixMode(op) {
			continue
		}
		var inputs, staged []*tensor.Matrix
		for i := 0; i < op.NumInputs(); i++ {
			base := workload.Uniform(72, 72, 0.1, 1, int64(op)*10+int64(i))
			in, err := base.View(tensor.Region{Row: 3, Col: 5, Height: 64, Width: 64})
			if err != nil {
				t.Fatal(err)
			}
			c := in.Clone()
			kernels.Int8{}.Round(c.Data)
			inputs, staged = append(inputs, in), append(staged, c)
		}
		got, err := d.ExecuteInto(op, inputs, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		want, err := kernels.Exec(op, staged, nil, kernels.Int8{})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: elem %d = %v, INT8 exec %v", op, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatrixModeMoreAccurateThanNPUStages(t *testing.T) {
	// DCT runs matrix mode (single output requant); forcing the same kernel
	// through the device's NPU path, per-stage requantization over the same
	// staged input, must be worse.
	d := New(Config{})
	ref := cpu.New(1)
	in := workload.Uniform(64, 64, 0, 1, 5)
	matrix, err := d.ExecuteInto(vop.OpDCT8x8, []*tensor.Matrix{in}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := kernels.Exec(vop.OpDCT8x8, []*tensor.Matrix{d.StageInput(vop.OpDCT8x8, in)}, nil, kernels.Int8{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.ExecuteInto(vop.OpDCT8x8, []*tensor.Matrix{in}, nil, nil)
	var eMatrix, eStaged float64
	for i := range want.Data {
		eMatrix += math.Abs(matrix.Data[i] - want.Data[i])
		eStaged += math.Abs(staged.Data[i] - want.Data[i])
	}
	if eMatrix >= eStaged {
		t.Fatalf("matrix mode error %g should undercut staged NPU error %g", eMatrix, eStaged)
	}
}

func TestMemoryLimitTriggersErrTooLarge(t *testing.T) {
	d := New(Config{MemoryBytes: 1024})
	in := tensor.NewMatrix(64, 64) // 4096 B int8 > 1024 after buffers
	_, err := d.ExecuteInto(vop.OpSobel, []*tensor.Matrix{in}, nil, nil)
	if !errors.Is(err, device.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestExecTimeScalesWithSlowdown(t *testing.T) {
	fast := New(Config{})
	slow := New(Config{Slowdown: 4})
	f := fast.ExecTime(vop.OpFFT, 1000)
	s := slow.ExecTime(vop.OpFFT, 1000)
	if math.Abs(s-4*f) > 1e-12*s {
		t.Fatalf("slowdown not applied: %g vs %g", s, f)
	}
	if slow.Link().BandwidthBps*4 != fast.Link().BandwidthBps {
		t.Fatal("link bandwidth not scaled")
	}
}

func TestDispatchOverheadPositive(t *testing.T) {
	if New(Config{}).DispatchOverhead() <= 0 {
		t.Fatal("dispatch overhead must be positive")
	}
}

func TestReduceSumRunsMatrixMode(t *testing.T) {
	// Summation accumulates wide (TCUSCAN-style), so the only error is the
	// input quantization: relative error well under 1% on uniform data.
	d := New(Config{})
	in := workload.Uniform(64, 64, 0, 1, 9)
	got, err := d.ExecuteInto(vop.OpReduceSum, []*tensor.Matrix{in}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, v := range in.Data {
		want += v
	}
	rel := math.Abs(got.Data[0]-want) / want
	if rel > 0.01 {
		t.Fatalf("matrix-mode sum error %g too large", rel)
	}
	if rel == 0 {
		t.Fatal("INT8 input quantization should leave a trace")
	}
}

// refRequantChannels is the per-channel requantiser as it was before it
// walked channels in place: gather every channel into its own slice,
// calibrate, then round-trip element by element through the int8 codes.
func refRequantChannels(out *tensor.Matrix, channel func(i, j int) int, n int) {
	groups := make([][]float64, n)
	for i := 0; i < out.Rows; i++ {
		for j := 0; j < out.Cols; j++ {
			ch := channel(i, j)
			groups[ch] = append(groups[ch], out.Data[i*out.Cols+j])
		}
	}
	params := make([]quant.AffineParams, n)
	for ch, g := range groups {
		params[ch] = quant.CalibrateAffine(g)
	}
	for i := 0; i < out.Rows; i++ {
		for j := 0; j < out.Cols; j++ {
			p := params[channel(i, j)]
			idx := i*out.Cols + j
			out.Data[idx] = p.DequantizeOne(p.QuantizeOne(out.Data[idx]))
		}
	}
}

// The in-place strided walk calibrates every channel to the same parameters
// as the gathered groups did (min and max do not depend on order) and lands
// on the same bits, without allocating.
func TestRequantOutputMatchesGroupedReference(t *testing.T) {
	for _, sh := range [][2]int{{8, 8}, {16, 24}, {80, 80}, {7, 9}, {1, 1}, {2, 5}} {
		in := workload.Uniform(sh[0], sh[1], -40, 90, int64(sh[0]*sh[1]))
		in.Data[0] = math.NaN() // a non-finite value must not poison its channel
		for _, op := range []vop.Opcode{vop.OpDCT8x8, vop.OpFDWT97} {
			got, want := in.Clone(), in.Clone()
			requantOutput(op, got)
			if op == vop.OpDCT8x8 {
				refRequantChannels(want, func(i, j int) int { return (i%8)*8 + j%8 }, 64)
			} else {
				refRequantChannels(want, func(i, j int) int {
					ch := 0
					if i >= (want.Rows+1)/2 {
						ch += 2
					}
					if j >= (want.Cols+1)/2 {
						ch++
					}
					return ch
				}, 4)
			}
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s %dx%d: elem %d = %v, grouped reference %v", op, sh[0], sh[1], i, got.Data[i], want.Data[i])
				}
			}
			if n := testing.AllocsPerRun(10, func() { requantOutput(op, got) }); n != 0 {
				t.Fatalf("%s %dx%d: requantOutput allocates %v times per call", op, sh[0], sh[1], n)
			}
		}
	}
}

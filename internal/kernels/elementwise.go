package kernels

import (
	"fmt"
	"math"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// execBinary evaluates the element-wise two-operand vector VOPs.
func execBinary(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(op, inputs, 2); err != nil {
		return nil, err
	}
	a, b := inputs[0], inputs[1]
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("kernels: %s shapes %dx%d and %dx%d differ", op, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var fn func(_ float64, d, x, y []float64)
	switch op {
	case vop.OpAdd:
		fn = func(_ float64, d, x, y []float64) {
			for i := range d {
				d[i] = x[i] + y[i]
			}
		}
	case vop.OpSub:
		fn = func(_ float64, d, x, y []float64) {
			for i := range d {
				d[i] = x[i] - y[i]
			}
		}
	case vop.OpMultiply:
		fn = func(_ float64, d, x, y []float64) {
			for i := range d {
				d[i] = x[i] * y[i]
			}
		}
	case vop.OpMax:
		fn = func(_ float64, d, x, y []float64) {
			for i := range d {
				d[i] = math.Max(x[i], y[i])
			}
		}
	case vop.OpMin:
		fn = func(_ float64, d, x, y []float64) {
			for i := range d {
				d[i] = math.Min(x[i], y[i])
			}
		}
	default:
		return nil, fmt.Errorf("kernels: %s is not a binary op", op)
	}
	out, err := outFor(dst, a.Rows, a.Cols)
	if err != nil {
		return nil, err
	}
	forSpans2(out, a, b, 0, fn)
	RoundMatrix(r, out)
	return out, nil
}

// execUnary evaluates the element-wise one-operand vector VOPs.
func execUnary(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(op, inputs, 1); err != nil {
		return nil, err
	}
	a := inputs[0]
	var fn func(d, x []float64)
	switch op {
	case vop.OpLog:
		fn = func(d, x []float64) {
			for i := range d {
				d[i] = math.Log(x[i])
			}
		}
	case vop.OpSqrt:
		fn = func(d, x []float64) {
			for i := range d {
				d[i] = math.Sqrt(x[i])
			}
		}
	case vop.OpRsqrt:
		fn = func(d, x []float64) {
			for i := range d {
				d[i] = 1 / math.Sqrt(x[i])
			}
		}
	case vop.OpTanh:
		fn = func(d, x []float64) {
			for i := range d {
				d[i] = math.Tanh(x[i])
			}
		}
	case vop.OpRelu:
		fn = func(d, x []float64) {
			for i := range d {
				d[i] = math.Max(0, x[i])
			}
		}
	default:
		return nil, fmt.Errorf("kernels: %s is not a unary op", op)
	}
	out, err := outFor(dst, a.Rows, a.Cols)
	if err != nil {
		return nil, err
	}
	forSpans1(out, a, fn)
	RoundMatrix(r, out)
	return out, nil
}

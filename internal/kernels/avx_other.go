//go:build !amd64

package kernels

import "shmt/internal/tensor"

func gemmLanes(*tensor.Matrix, *tensor.Matrix, *tensor.Matrix, int) int { return 0 }

func roundF32Lanes([]float64) int { return 0 }

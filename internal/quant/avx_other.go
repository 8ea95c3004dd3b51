//go:build !amd64

package quant

func finiteRangeLanes([]float64) (Range, int) { return EmptyRange(), 0 }

func (AffineParams) roundTripLanes([]float64) int { return 0 }

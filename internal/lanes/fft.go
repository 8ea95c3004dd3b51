package lanes

import "math"

// The FFT kernel's loops: the real input's gather in bit-reversed order, a
// butterfly stage, the spectrum's split into real and imaginary planes, and
// the magnitude.

// Gather sets dst[j] = complex(src[rev[j]], 0).
func Gather(dst []complex128, src []float64, rev []int32) { gather(dst, src, rev, rowGather.on) }

func gather(dst []complex128, src []float64, rev []int32, lane bool) {
	rev = rev[:len(dst)]
	i := 0
	if n := len(dst) &^ 3; lane && n > 0 {
		for _, k := range rev[:n] { // VGATHERDPD does not check its indices
			_ = src[k]
		}
		gatherAVX2(dst[:n], src, rev[:n])
		i = n
	}
	for j, k := range rev[i:] {
		dst[i+j] = complex(src[k], 0)
	}
}

// Butterflies runs one stage of an in-place radix-2 FFT over x: each group
// of 2·len(w) elements pairs its halves lo and hi, and lo[j], hi[j] become
// lo[j] ± hi[j]·w[j]. The product is Go's, ar·br − ai·bi and ar·bi + ai·br,
// each term rounded before the add or subtract. A lane holds two complex
// values; where w is one twiddle the pairs are neighbours, and a lane takes
// two groups.
func Butterflies(x, w []complex128) { butterflies(x, w, rowButterfly.on) }

func butterflies(x, w []complex128, lane bool) {
	half := len(w)
	i := 0
	switch {
	case !lane:
	case half == 1 && len(x) >= 4:
		i = len(x) &^ 3
		butterfly1AVX(x[:i], w[0])
	case half >= 2 && half%2 == 0:
		butterflyAVX(x, w)
		i = len(x) / (2 * half) * (2 * half)
	}
	butterfliesGo(x[i:], w)
}

func butterfliesGo(x, w []complex128) {
	half := len(w)
	for i := 0; i+2*half <= len(x); i += 2 * half {
		lo, hi := x[i:i+half], x[i+half:i+2*half]
		for j, wj := range w {
			u, h := lo[j], hi[j]
			v := complex(float64(real(h)*real(wj))-float64(imag(h)*imag(wj)),
				float64(real(h)*imag(wj))+float64(imag(h)*real(wj)))
			lo[j] = u + v
			hi[j] = u - v
		}
	}
}

// Split sets re[j], im[j] to the parts of x[j].
func Split(re, im []float64, x []complex128) { split(re, im, x, rowSplit.on) }

func split(re, im []float64, x []complex128, lane bool) {
	re, im = re[:len(x)], im[:len(x)]
	i := 0
	if n := len(x) &^ 3; lane && n > 0 {
		splitAVX(re[:n], im[:n], x[:n])
		i = n
	}
	for j, v := range x[i:] {
		re[i+j], im[i+j] = real(v), imag(v)
	}
}

// Hypot sets dst[i] = math.Hypot(x[i], y[i]). A lane runs math.Hypot's
// amd64 sequence (archHypot), max·√(1 + (min/max)²) and +0 where both are
// zero; a block holding a non-finite x or y runs through the twin.
func Hypot(dst, x, y []float64) { hypot(dst, x, y, rowHypot.on) }

func hypot(dst, x, y []float64, lane bool) {
	x, y = x[:len(dst)], y[:len(dst)]
	i, n := 0, 0
	if lane {
		n = len(dst) &^ 3
	}
	for i < n {
		i += hypotAVX(dst[i:n], x[i:n], y[i:n])
		if i < n {
			hypotGo(dst[i:i+4], x[i:i+4], y[i:i+4])
			i += 4
		}
	}
	hypotGo(dst[i:], x[i:], y[i:])
}

func hypotGo(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Hypot(x[i], y[i])
	}
}

// complexes pairs x and y into complex values.
func complexes(x, y []float64) []complex128 {
	z := make([]complex128, len(x))
	for i := range z {
		z[i] = complex(x[i], y[i])
	}
	return z
}

// interleave lays z out as real and imaginary parts.
func interleave(z []complex128) []float64 {
	out := make([]float64, 0, 2*len(z))
	for _, v := range z {
		out = append(out, real(v), imag(v))
	}
	return out
}

// runGather gathers x through a stride-7 permutation of its indices.
func runGather(x, _ []float64, lane bool) []float64 {
	rev := make([]int32, len(x))
	for j := range rev {
		rev[j] = int32((7*j + 3) % len(x))
	}
	dst := make([]complex128, len(x))
	gather(dst, x, rev, lane)
	return interleave(dst)
}

// runButterfly runs every stage of the largest power-of-two transform x
// and y hold, on twiddles drawn from y and x.
func runButterfly(x, y []float64, lane bool) []float64 {
	if len(x) == 0 {
		return nil
	}
	m := 1
	for 2*m <= len(x) {
		m *= 2
	}
	z := complexes(x[:m], y[:m])
	for half := 1; half < m; half *= 2 {
		w := make([]complex128, half)
		for j := range w {
			w[j] = complex(y[(j+half)%len(y)], x[(3*j+half)%len(x)])
		}
		butterflies(z, w, lane)
	}
	return interleave(z)
}

func runSplit(x, y []float64, lane bool) []float64 {
	re, im := make([]float64, len(x)), make([]float64, len(x))
	split(re, im, complexes(x, y), lane)
	return append(re, im...)
}

func runHypot(x, y []float64, lane bool) []float64 {
	dst := make([]float64, len(x))
	hypot(dst, x, y, lane)
	return dst
}

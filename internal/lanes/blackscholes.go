package lanes

import "math"

// The Black-Scholes kernel's four stages: d1, d2, the cumulative normal of
// each, and the call price. The kernel rounds between them.

// D1 sets dst[i] = (Log(s[i]/k[i]) + c) / v. A lane divides, runs math.Log's
// amd64 sequence (archLog) and then adds and divides; a block with a
// quotient that is not positive and finite runs through the twin.
func D1(dst, s, k []float64, c, v float64) { d1(dst, s, k, c, v, rowD1.on) }

func d1(dst, s, k []float64, c, v float64, lane bool) {
	s, k = s[:len(dst)], k[:len(dst)]
	i, n := 0, 0
	if lane {
		n = len(dst) &^ 3
	}
	for i < n {
		i += d1AVX2(dst[i:n], s[i:n], k[i:n], c, v)
		if i < n {
			d1Go(dst[i:i+4], s[i:i+4], k[i:i+4], c, v)
			i += 4
		}
	}
	d1Go(dst[i:], s[i:], k[i:], c, v)
}

func d1Go(dst, s, k []float64, c, v float64) {
	s, k = s[:len(dst)], k[:len(dst)]
	for i := range dst {
		dst[i] = (math.Log(s[i]/k[i]) + c) / v
	}
}

// D2 sets dst[i] = x[i] - c.
func D2(dst, x []float64, c float64) { d2(dst, x, c, rowD2.on) }

func d2(dst, x []float64, c float64, lane bool) {
	x = x[:len(dst)]
	i := 0
	if n := len(dst) &^ 3; lane && n > 0 {
		d2AVX(dst[:n], x[:n], c)
		i = n
	}
	d2Go(dst[i:], x[i:], c)
}

func d2Go(dst, x []float64, c float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = x[i] - c
	}
}

// CND sets dst[i] to the cumulative normal distribution at d[i], by the
// Abramowitz & Stegun 5-term polynomial the CUDA SDK sample uses. A lane
// runs math.Exp's amd64 sequence (archExp) in the branch math.Exp takes on
// this host; a block with a d whose Exp argument is non-finite or past
// Exp's overflow or denormal limits runs through the twin.
func CND(dst, d []float64) { cnd(dst, d, rowCND.on) }

func cnd(dst, d []float64, lane bool) {
	d = d[:len(dst)]
	i, n := 0, 0
	if lane {
		n = len(dst) &^ 3
	}
	for i < n {
		i += cndAVX2(dst[i:n], d[i:n], cndFMA)
		if i < n {
			cndGo(dst[i:i+4], d[i:i+4])
			i += 4
		}
	}
	cndGo(dst[i:], d[i:])
}

// invSqrt2Pi is 1/√(2π), rounded as the kernel always had it.
var invSqrt2Pi = 1 / math.Sqrt(2*math.Pi)

func cndGo(dst, d []float64) {
	const (
		a1 = 0.31938153
		a2 = -0.356563782
		a3 = 1.781477937
		a4 = -1.821255978
		a5 = 1.330274429
	)
	d = d[:len(dst)]
	for i, x := range d {
		k := 1 / (1 + float64(0.2316419*math.Abs(x)))
		poly := k * (a1 + float64(k*(a2+float64(k*(a3+float64(k*(a4+float64(k*a5))))))))
		c := float64(float64(invSqrt2Pi*math.Exp(float64(-0.5*x)*x)) * poly)
		if x > 0 {
			c = 1 - c
		}
		dst[i] = c
	}
}

// Call sets dst[i] = s[i]·nd1[i] − (k[i]·expRT)·nd2[i], the call price.
func Call(dst, s, nd1, k, nd2 []float64, expRT float64) { call(dst, s, nd1, k, nd2, expRT, rowCall.on) }

func call(dst, s, nd1, k, nd2 []float64, expRT float64, lane bool) {
	n := len(dst)
	s, nd1, k, nd2 = s[:n], nd1[:n], k[:n], nd2[:n]
	i := 0
	if n4 := n &^ 3; lane && n4 > 0 {
		callAVX(dst[:n4], s, nd1, k, nd2, expRT)
		i = n4
	}
	callGo(dst[i:], s[i:], nd1[i:], k[i:], nd2[i:], expRT)
}

func callGo(dst, s, nd1, k, nd2 []float64, expRT float64) {
	n := len(dst)
	s, nd1, k, nd2 = s[:n], nd1[:n], k[:n], nd2[:n]
	for i := range dst {
		dst[i] = float64(s[i]*nd1[i]) - float64(float64(k[i]*expRT)*nd2[i])
	}
}

// cndFMA is the branch of math.Exp's amd64 sequence the host runs: the FMA
// one where math's own useFMA is set (the CPU has FMA3 and GODEBUG does not
// switch it off). The lanes read it from a witness: expWitness is an input
// whose Exp differs between the branches.
var cndFMA, cndExpKnown bool

// cndWitness is a d whose CND differs between math.Exp's branches; the
// init corpus holds it, so a lane in the wrong branch switches bs.cnd off.
const cndWitness = -0.5016

const (
	expWitness      = -29.999135
	expWitnessPlain = 0x3d3a5cb68c9fc5d8 // math.Exp(expWitness) without FMA
	expWitnessFMA   = 0x3d3a5cb68c9fc5d7 // and with it
)

// expBranch reports which branch math.Exp runs, and whether it is one of
// the two the lanes know; only amd64 runs either.
func expBranch() (useFMA, known bool) {
	switch math.Float64bits(math.Exp(expWitness)) {
	case expWitnessFMA:
		return true, fma
	case expWitnessPlain:
		return false, true
	}
	return false, false
}

func runD1(x, y []float64, lane bool) []float64 {
	dst := make([]float64, len(x))
	d1(dst, x, y, 0.065, 0.3, lane)
	return dst
}

func runD2(x, _ []float64, lane bool) []float64 {
	dst := make([]float64, len(x))
	d2(dst, x, 0.3, lane)
	return dst
}

func runCND(x, _ []float64, lane bool) []float64 {
	dst := make([]float64, len(x))
	cnd(dst, x, lane)
	return dst
}

func runCall(x, y []float64, lane bool) []float64 {
	dst := make([]float64, len(x))
	call(dst, x, y, y, x, 0.9801986733067553, lane)
	return dst
}

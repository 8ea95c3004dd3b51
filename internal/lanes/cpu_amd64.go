package lanes

// What the host offers the lanes, probed once when the program starts.
// avx: CPUID lists AVX and OSXSAVE, and XGETBV shows the operating system
// saving the XMM and YMM registers across context switches. avx2 and fma
// add CPUID's AVX2 and FMA3 bits to that.
var avx, avx2, fma = probe()

func probe() (avx, avx2, fma bool) {
	const fma3, osxsave, avx1 = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx1) != osxsave|avx1 {
		return false, false, false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	if xgetbv()&(xmm|ymm) != xmm|ymm {
		return false, false, false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return true, false, ecx&fma3 != 0
	}
	_, ebx, _, _ := cpuid(7, 0)
	return true, ebx&(1<<5) != 0, ecx&fma3 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0.
func xgetbv() uint32

// The lanes' loops, in gemm_amd64.s, cast_amd64.s, blackscholes_amd64.s and
// fft_amd64.s. A loop that stops early at a block outside its domain
// returns how many elements it finished; every length is a positive
// multiple of four (eight for finiteRangeAVX).

//go:noescape
func gemmPairAVX(c0, c1, a0, a1, b *float64, bstride, n, k int)

//go:noescape
func roundF32AVX(p *float64, n int)

//go:noescape
func roundTripAVX(p *float64, n int, scale, zp float64)

//go:noescape
func finiteRangeAVX(p *float64, n int) (lo, hi float64)

//go:noescape
func d1AVX2(dst, s, k []float64, c, v float64) int

//go:noescape
func d2AVX(dst, x []float64, c float64)

//go:noescape
func cndAVX2(dst, d []float64, fma bool) int

//go:noescape
func callAVX(dst, s, nd1, k, nd2 []float64, expRT float64)

//go:noescape
func gatherAVX2(dst []complex128, src []float64, rev []int32)

//go:noescape
func butterfly1AVX(x []complex128, w complex128)

//go:noescape
func butterflyAVX(x, w []complex128)

//go:noescape
func splitAVX(re, im []float64, x []complex128)

//go:noescape
func hypotAVX(dst, x, y []float64) int

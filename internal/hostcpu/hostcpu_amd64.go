package hostcpu

// AVX reports whether the host runs 256-bit AVX code: CPUID lists AVX and
// OSXSAVE, and XGETBV shows the operating system saving the XMM and YMM
// registers across context switches.
var AVX = probeAVX()

func probeAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	return xgetbv()&(xmm|ymm) == xmm|ymm
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0.
func xgetbv() uint32

#include "textflag.h"

DATA posInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $8
DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8
DATA maxFinite<>+0(SB)/8, $0x7fefffffffffffff
GLOBL maxFinite<>(SB), RODATA|NOPTR, $8
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8
DATA codeMax<>+0(SB)/8, $127.0
GLOBL codeMax<>(SB), RODATA|NOPTR, $8
DATA codeMin<>+0(SB)/8, $-128.0
GLOBL codeMin<>(SB), RODATA|NOPTR, $8

// func finiteRangeAVX(p *float64, n int) (lo, hi float64)
//
// Two independent pairs of lane accumulators, lo in Y0/Y10 and hi in
// Y1/Y11, take eight elements a step. A lane whose value is NaN or ±Inf
// (|v| <= MaxFloat64 is false) offers +Inf to lo and −Inf to hi instead,
// which changes neither.
TEXT ·finiteRangeAVX(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD maxFinite<>(SB), Y2
	VBROADCASTSD absMask<>(SB), Y3
	VBROADCASTSD posInf<>(SB), Y4
	VBROADCASTSD negInf<>(SB), Y5
	VMOVAPD Y4, Y0
	VMOVAPD Y4, Y10
	VMOVAPD Y5, Y1
	VMOVAPD Y5, Y11

rangeLoop:
	VMOVUPD 0(SI), Y6
	VANDPD Y3, Y6, Y7
	VCMPPD $0x12, Y2, Y7, Y7 // |v| <= MaxFloat64, ordered: finite
	VBLENDVPD Y7, Y6, Y4, Y8 // finite ? v : +Inf
	VBLENDVPD Y7, Y6, Y5, Y9 // finite ? v : −Inf
	VMINPD Y8, Y0, Y0
	VMAXPD Y9, Y1, Y1
	VMOVUPD 32(SI), Y12
	VANDPD Y3, Y12, Y13
	VCMPPD $0x12, Y2, Y13, Y13
	VBLENDVPD Y13, Y12, Y4, Y14
	VBLENDVPD Y13, Y12, Y5, Y15
	VMINPD Y14, Y10, Y10
	VMAXPD Y15, Y11, Y11
	ADDQ $64, SI
	SUBQ $8, CX
	JNZ rangeLoop

	// Fold the eight lanes of each bound into one.
	VMINPD Y10, Y0, Y0
	VMAXPD Y11, Y1, Y1
	VEXTRACTF128 $1, Y0, X8
	VMINPD X8, X0, X0
	VEXTRACTF128 $1, Y1, X9
	VMAXPD X9, X1, X1
	VPERMILPD $1, X0, X8
	VMINSD X8, X0, X0
	VPERMILPD $1, X1, X9
	VMAXSD X9, X1, X1
	VZEROUPPER
	MOVSD X0, lo+16(FP)
	MOVSD X1, hi+24(FP)
	RET

// func roundTripAVX(p *float64, n int, scale, zp float64)
//
// RoundTripOne on four lanes: q = RoundToEven(v/scale) + zp, clamped to
// [−128, 127], zp where v is NaN, then scale·(q − zp). VMINPD and VMAXPD
// return their second source when the comparison fails, which is Go's
// `if q > 127 { q = 127 }` and `if q < -128 { q = -128 }` for every q,
// NaN included.
TEXT ·roundTripAVX(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD scale+16(FP), Y1
	VBROADCASTSD zp+24(FP), Y2
	VBROADCASTSD codeMax<>(SB), Y3
	VBROADCASTSD codeMin<>(SB), Y4

roundTripLoop:
	VMOVUPD 0(SI), Y0
	VDIVPD Y1, Y0, Y5         // v / scale
	VROUNDPD $0, Y5, Y5       // to nearest, ties to even
	VADDPD Y2, Y5, Y5         // + zp
	VMINPD Y5, Y3, Y5         // 127 < q ? 127 : q
	VMAXPD Y5, Y4, Y5         // -128 > q ? -128 : q
	VCMPPD $3, Y0, Y0, Y6     // v unordered with itself: NaN
	VBLENDVPD Y6, Y2, Y5, Y5  // NaN ? zp : q
	VSUBPD Y2, Y5, Y5         // q - zp
	VMULPD Y5, Y1, Y5         // scale * (q - zp)
	VMOVUPD Y5, 0(SI)
	ADDQ $32, SI
	SUBQ $4, CX
	JNZ roundTripLoop
	VZEROUPPER
	RET

// func roundF32AVX(p *float64, n int)
TEXT ·roundF32AVX(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX

f32Loop:
	VCVTPD2PSY 0(SI), X0
	VCVTPS2PD X0, Y0
	VMOVUPD Y0, 0(SI)
	ADDQ $32, SI
	SUBQ $4, CX
	JNZ f32Loop
	VZEROUPPER
	RET

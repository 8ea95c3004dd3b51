#include "textflag.h"

DATA fftAbsMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL fftAbsMask<>(SB), RODATA|NOPTR, $8
DATA fftPosInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL fftPosInf<>(SB), RODATA|NOPTR, $8
DATA fftOne<>+0(SB)/8, $1.0
GLOBL fftOne<>(SB), RODATA|NOPTR, $8

// func gatherAVX2(dst []complex128, src []float64, rev []int32)
//
// Four src elements a step through VGATHERDPD, paired with +0 imaginary
// parts. The caller has checked every index.
TEXT ·gatherAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ rev_base+48(FP), R8
	VXORPD Y3, Y3, Y3
	XORQ BX, BX

gatherLoop:
	VMOVDQU (R8)(BX*4), X1
	VPCMPEQD Y2, Y2, Y2
	VXORPD Y0, Y0, Y0
	VGATHERDPD Y2, (SI)(X1*8), Y0         // s0 s1 s2 s3
	VUNPCKLPD Y3, Y0, Y4                  // s0 0 s2 0
	VUNPCKHPD Y3, Y0, Y5                  // s1 0 s3 0
	VPERM2F128 $0x20, Y5, Y4, Y6          // s0 0 s1 0
	VPERM2F128 $0x31, Y5, Y4, Y7          // s2 0 s3 0
	MOVQ BX, AX
	SHLQ $4, AX
	VMOVUPD Y6, (DI)(AX*1)
	VMOVUPD Y7, 32(DI)(AX*1)
	ADDQ $4, BX
	CMPQ BX, CX
	JB gatherLoop
	VZEROUPPER
	RET

// CMUL sets v to h·w for two complex128 values per register, with w's
// parts swapped in ws: the even lanes get hr·wr − hi·wi and the odd lanes
// hr·wi + hi·wr, each product rounded on its own. t0, t1 are scratch.
#define CMUL(h, w, ws, v, t0, t1) \
	VMOVDDUP h, t0; \
	VPERMILPD $0xf, h, t1; \
	VMULPD w, t0, t0; \
	VMULPD ws, t1, t1; \
	VADDSUBPD t1, t0, v

// func butterfly1AVX(x []complex128, w complex128)
//
// The stage of neighbouring pairs: x[0], x[1] and x[2], x[3] are two
// butterflies, so a step gathers u = x[0], x[2] and h = x[1], x[3] into one
// register each, and scatters u ± h·w back.
TEXT ·butterfly1AVX(SB), NOSPLIT, $0-40
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VBROADCASTF128 w+24(FP), Y15
	VPERMILPD $0x5, Y15, Y14

b1Loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2          // u
	VPERM2F128 $0x31, Y1, Y0, Y3          // h
	CMUL(Y3, Y15, Y14, Y8, Y4, Y5)
	VADDPD Y8, Y2, Y9                     // u + v
	VSUBPD Y8, Y2, Y10                    // u − v
	VPERM2F128 $0x20, Y10, Y9, Y0
	VPERM2F128 $0x31, Y10, Y9, Y1
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	ADDQ $64, SI
	SUBQ $4, CX
	JNZ b1Loop
	VZEROUPPER
	RET

// func butterflyAVX(x, w []complex128)
//
// Every whole group of 2·len(w) elements, len(w) even: two butterflies of
// the group a step, lo ± hi·w.
TEXT ·butterflyAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), R8
	MOVQ w_len+32(FP), R9
	SHLQ $4, R9                           // bytes of half a group
	SHLQ $4, CX
	LEAQ (SI)(CX*1), R10                  // end of x
	LEAQ (R9)(R9*1), R11                  // bytes of a group

groupLoop:
	LEAQ (SI)(R11*1), AX
	CMPQ AX, R10
	JA bDone
	XORQ BX, BX
	LEAQ (SI)(R9*1), DX                   // hi

pairLoop:
	VMOVUPD (R8)(BX*1), Y15
	VPERMILPD $0x5, Y15, Y14
	VMOVUPD (DX)(BX*1), Y3
	CMUL(Y3, Y15, Y14, Y8, Y4, Y5)
	VMOVUPD (SI)(BX*1), Y2
	VADDPD Y8, Y2, Y9
	VSUBPD Y8, Y2, Y10
	VMOVUPD Y9, (SI)(BX*1)
	VMOVUPD Y10, (DX)(BX*1)
	ADDQ $32, BX
	CMPQ BX, R9
	JB pairLoop
	MOVQ AX, SI
	JMP groupLoop

bDone:
	VZEROUPPER
	RET

// func splitAVX(re, im []float64, x []complex128)
TEXT ·splitAVX(SB), NOSPLIT, $0-72
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), CX
	MOVQ im_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	XORQ BX, BX

splitLoop:
	MOVQ BX, AX
	SHLQ $4, AX
	VMOVUPD (SI)(AX*1), Y0                // r0 i0 r1 i1
	VMOVUPD 32(SI)(AX*1), Y1              // r2 i2 r3 i3
	VPERM2F128 $0x20, Y1, Y0, Y2          // r0 i0 r2 i2
	VPERM2F128 $0x31, Y1, Y0, Y3          // r1 i1 r3 i3
	VUNPCKLPD Y3, Y2, Y4                  // r0 r1 r2 r3
	VUNPCKHPD Y3, Y2, Y5                  // i0 i1 i2 i3
	VMOVUPD Y4, (DI)(BX*8)
	VMOVUPD Y5, (DX)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JB splitLoop
	VZEROUPPER
	RET

// func hypotAVX(dst, x, y []float64) int
//
// archHypot on each lane: p = |x|, q = |y|, then max·√(1 + (min/max)²),
// +0 where both are zero. The loop stops at a block holding a non-finite
// x or y.
TEXT ·hypotAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DX
	VBROADCASTSD fftAbsMask<>(SB), Y15
	VBROADCASTSD fftPosInf<>(SB), Y14
	VBROADCASTSD fftOne<>(SB), Y13
	VXORPD Y12, Y12, Y12
	XORQ BX, BX

hypotLoop:
	CMPQ BX, CX
	JAE hypotDone
	VANDPD (SI)(BX*8), Y15, Y0            // p
	VANDPD (DX)(BX*8), Y15, Y1            // q
	VCMPPD $0x11, Y14, Y0, Y2             // p < +Inf
	VCMPPD $0x11, Y14, Y1, Y3             // q < +Inf
	VANDPD Y3, Y2, Y2
	VMOVMSKPD Y2, AX
	CMPQ AX, $15
	JNE hypotDone
	VMAXPD Y1, Y0, Y4                     // max
	VMINPD Y0, Y1, Y5                     // min
	VDIVPD Y4, Y5, Y5
	VMULPD Y5, Y5, Y5
	VADDPD Y13, Y5, Y5
	VSQRTPD Y5, Y5
	VMULPD Y5, Y4, Y5
	VCMPPD $0, Y12, Y4, Y6                // max == 0: both zero
	VANDNPD Y5, Y6, Y5
	VMOVUPD Y5, (DI)(BX*8)
	ADDQ $4, BX
	JMP hypotLoop

hypotDone:
	MOVQ BX, ret+72(FP)
	VZEROUPPER
	RET

#include "textflag.h"

// Each constant is four copies, one per lane, so an instruction can take it
// straight from memory.
#define C4(name, v) DATA name<>+0(SB)/8, v; DATA name<>+8(SB)/8, v; DATA name<>+16(SB)/8, v; DATA name<>+24(SB)/8, v; GLOBL name<>(SB), RODATA|NOPTR, $32

C4(posInf, $0x7ff0000000000000)
C4(absMask, $0x7fffffffffffffff)
C4(one, $1.0)
C4(two, $2.0)
C4(half, $0.5)

// math.Log's amd64 sequence (archLog, log_amd64.s).
C4(mantMask, $0x000fffffffffffff)
C4(exp52, $0x4330000000000000) // 2⁵², whose low mantissa bits hold an integer
C4(bias, $0x43300000000003fe) // 2⁵² + 1022
C4(hSqrt2, $7.07106781186547524401e-01)
C4(ln2Hi, $6.93147180369123816490e-01)
C4(ln2Lo, $1.90821492927058770002e-10)
C4(logL1, $6.666666666666735130e-01)
C4(logL2, $3.999999999940941908e-01)
C4(logL3, $2.857142874366239149e-01)
C4(logL4, $2.222219843214978396e-01)
C4(logL5, $1.818357216161805012e-01)
C4(logL6, $1.531383769920937332e-01)
C4(logL7, $1.479819860511658591e-01)

// math.Exp's amd64 sequence (archExp, exp_amd64.s).
C4(expOverflow, $7.09782712893384e+02)
C4(log2e, $1.4426950408889634073599246810018920)
C4(ln2U, $0.69314718055966295651160180568695068359375)
C4(ln2L, $0.28235290563031577122588448175013436025525412068e-12)
C4(sixteenth, $0.0625)
C4(expC3, $1.6666666666666666667e-1)
C4(expC4, $4.1666666666666666667e-2)
C4(expC5, $8.3333333333333333333e-3)
C4(expC6, $1.3888888888888888889e-3)
C4(expC7, $1.9841269841269841270e-4)
C4(expC8, $2.4801587301587301587e-5)
DATA expBias<>+0(SB)/4, $0x3ff
DATA expBias<>+4(SB)/4, $0x3ff
DATA expBias<>+8(SB)/4, $0x3ff
DATA expBias<>+12(SB)/4, $0x3ff
GLOBL expBias<>(SB), RODATA|NOPTR, $16
DATA expMaxBiased<>+0(SB)/4, $0x7ff
DATA expMaxBiased<>+4(SB)/4, $0x7ff
DATA expMaxBiased<>+8(SB)/4, $0x7ff
DATA expMaxBiased<>+12(SB)/4, $0x7ff
GLOBL expMaxBiased<>(SB), RODATA|NOPTR, $16

// CND's polynomial.
C4(cndK, $0.2316419)
C4(cndA1, $0.31938153)
C4(cndA2, $-0.356563782)
C4(cndA3, $1.781477937)
C4(cndA4, $-1.821255978)
C4(cndA5, $1.330274429)
C4(negHalf, $-0.5)
C4(invSqrt2Pi, $0x3fd9884533d43651) // 1/math.Sqrt(2π)

// func d1AVX2(dst, s, k []float64, c, v float64) int
//
// Per block: x = s/k; stop unless every x is positive and finite; then
// archLog's operations on each lane, + c, / v. The exponent goes through
// the integer unit as archLog's does, its conversion to float64 by 2⁵²'s
// mantissa: e − 1022 is exact either way.
TEXT ·d1AVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ k_base+48(FP), DX
	VBROADCASTSD c+72(FP), Y14
	VBROADCASTSD v+80(FP), Y15
	VXORPD Y13, Y13, Y13
	XORQ BX, BX

d1Loop:
	CMPQ BX, CX
	JAE d1Done
	VMOVUPD (SI)(BX*8), Y0
	VDIVPD (DX)(BX*8), Y0, Y0             // x = s / k
	VCMPPD $0x1e, Y13, Y0, Y1             // x > 0
	VCMPPD $0x11, posInf<>(SB), Y0, Y2    // x < +Inf
	VANDPD Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPQ AX, $15
	JNE d1Done

	VANDPD mantMask<>(SB), Y0, Y2
	VORPD half<>(SB), Y2, Y2              // f1
	VPSRLQ $52, Y0, Y3
	VPOR exp52<>(SB), Y3, Y3
	VSUBPD bias<>(SB), Y3, Y1             // k = exponent − 1022
	VCMPPD $0x12, hSqrt2<>(SB), Y2, Y4    // f1 <= √2/2
	VANDPD one<>(SB), Y4, Y4
	VSUBPD Y4, Y1, Y1                     // k -= 1
	VADDPD one<>(SB), Y4, Y4
	VMULPD Y4, Y2, Y2                     // f1 *= 2
	VSUBPD one<>(SB), Y2, Y2              // f = f1 − 1
	VADDPD two<>(SB), Y2, Y3
	VDIVPD Y3, Y2, Y3                     // s = f / (2 + f)
	VMULPD Y3, Y3, Y4                     // s2
	VMULPD Y4, Y4, Y5                     // s4
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4                     // t1
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5                     // t2
	VADDPD Y5, Y4, Y4                     // R = t1 + t2
	VMULPD half<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0                     // hfsq = 0.5·f·f
	VADDPD Y0, Y4, Y4                     // hfsq + R
	VMULPD Y4, Y3, Y3                     // s·(hfsq + R)
	VMULPD ln2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3                     // + k·Ln2Lo
	VSUBPD Y3, Y0, Y0                     // hfsq − …
	VSUBPD Y2, Y0, Y0                     // − f
	VMULPD ln2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1                     // log = k·Ln2Hi − …
	VADDPD Y14, Y1, Y1
	VDIVPD Y15, Y1, Y1                    // (log + c) / v
	VMOVUPD Y1, (DI)(BX*8)
	ADDQ $4, BX
	JMP d1Loop

d1Done:
	MOVQ BX, ret+88(FP)
	VZEROUPPER
	RET

// func d2AVX(dst, x []float64, c float64)
TEXT ·d2AVX(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y15
	XORQ BX, BX

d2Loop:
	VMOVUPD (SI)(BX*8), Y0
	VSUBPD Y15, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JB d2Loop
	VZEROUPPER
	RET

// func cndAVX2(dst, d []float64, fma bool) int
//
// Per block: k = 1/(1 + 0.2316419·|d|), the Horner polynomial in k, and
// archExp's operations on (−0.5·d)·d in the branch fma names — math.Exp's
// on this host — then (invSqrt2Pi·e)·poly, and 1 − that where d > 0. A
// block whose Exp argument is not finite, is above archExp's overflow
// threshold, or scales by a power of two archExp takes through its
// denormal or overflow path is not stored: the loop stops there.
TEXT ·cndAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ d_base+24(FP), SI
	MOVBLZX fma+48(FP), R8
	VXORPD Y13, Y13, Y13
	VMOVDQU expMaxBiased<>(SB), X12
	XORQ BX, BX

cndLoop:
	CMPQ BX, CX
	JAE cndDone
	VMOVUPD (SI)(BX*8), Y0                // d
	VANDPD absMask<>(SB), Y0, Y1
	VMULPD cndK<>(SB), Y1, Y1
	VADDPD one<>(SB), Y1, Y1
	VMOVUPD one<>(SB), Y2
	VDIVPD Y1, Y2, Y2                     // k = 1 / (1 + 0.2316419·|d|)
	VMULPD cndA5<>(SB), Y2, Y3
	VADDPD cndA4<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD cndA3<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD cndA2<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD cndA1<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3                     // poly
	VMULPD negHalf<>(SB), Y0, Y4
	VMULPD Y0, Y4, Y4                     // x = (−0.5·d)·d

	VANDPD absMask<>(SB), Y4, Y5
	VCMPPD $0x11, posInf<>(SB), Y5, Y5    // x finite
	VCMPPD $0x12, expOverflow<>(SB), Y4, Y6 // x <= Overflow
	VANDPD Y6, Y5, Y5
	VMOVMSKPD Y5, AX
	CMPQ AX, $15
	JNE cndDone
	VMULPD log2e<>(SB), Y4, Y5
	VCVTPD2DQY Y5, X6                     // exponent, rounded to nearest even
	VCVTDQ2PD X6, Y7
	VPADDD expBias<>(SB), X6, X6          // biased exponent
	VPCMPGTD X13, X6, X9                  // > 0
	VPCMPGTD X6, X12, X10                 // < 0x7ff
	VPAND X10, X9, X9
	VMOVMSKPS X9, AX
	CMPQ AX, $15
	JNE cndDone
	TESTQ R8, R8
	JNE cndFMA

	VMULPD ln2U<>(SB), Y7, Y8
	VSUBPD Y8, Y4, Y4
	VMULPD ln2L<>(SB), Y7, Y8
	VSUBPD Y8, Y4, Y4
	VMULPD sixteenth<>(SB), Y4, Y4
	VMULPD expC8<>(SB), Y4, Y8
	VADDPD expC7<>(SB), Y8, Y8
	VMULPD Y4, Y8, Y8
	VADDPD expC6<>(SB), Y8, Y8
	VMULPD Y4, Y8, Y8
	VADDPD expC5<>(SB), Y8, Y8
	VMULPD Y4, Y8, Y8
	VADDPD expC4<>(SB), Y8, Y8
	VMULPD Y4, Y8, Y8
	VADDPD expC3<>(SB), Y8, Y8
	VMULPD Y4, Y8, Y8
	VADDPD half<>(SB), Y8, Y8
	VMULPD Y4, Y8, Y8
	VADDPD one<>(SB), Y8, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD one<>(SB), Y4, Y4
	JMP cndScale

cndFMA:
	VFNMADD231PD ln2U<>(SB), Y7, Y4
	VFNMADD231PD ln2L<>(SB), Y7, Y4
	VMULPD sixteenth<>(SB), Y4, Y4
	VMOVUPD expC8<>(SB), Y8
	VFMADD213PD expC7<>(SB), Y4, Y8
	VFMADD213PD expC6<>(SB), Y4, Y8
	VFMADD213PD expC5<>(SB), Y4, Y8
	VFMADD213PD expC4<>(SB), Y4, Y8
	VFMADD213PD expC3<>(SB), Y4, Y8
	VFMADD213PD half<>(SB), Y4, Y8
	VFMADD213PD one<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VMULPD Y8, Y4, Y4
	VADDPD two<>(SB), Y4, Y8
	VFMADD213PD one<>(SB), Y8, Y4

cndScale:
	VPMOVZXDQ X6, Y9
	VPSLLQ $52, Y9, Y9                    // 2^exponent
	VMULPD Y9, Y4, Y4                     // e = Exp(x)
	VMULPD invSqrt2Pi<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4                     // c = (invSqrt2Pi·e)·poly
	VCMPPD $0x1e, Y13, Y0, Y5             // d > 0
	VMOVUPD one<>(SB), Y6
	VSUBPD Y4, Y6, Y6                     // 1 − c
	VBLENDVPD Y5, Y6, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ $4, BX
	JMP cndLoop

cndDone:
	MOVQ BX, ret+56(FP)
	VZEROUPPER
	RET

// func callAVX(dst, s, nd1, k, nd2 []float64, expRT float64)
TEXT ·callAVX(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ nd1_base+48(FP), R8
	MOVQ k_base+72(FP), R9
	MOVQ nd2_base+96(FP), R10
	VBROADCASTSD expRT+120(FP), Y15
	XORQ BX, BX

callLoop:
	VMOVUPD (SI)(BX*8), Y0
	VMULPD (R8)(BX*8), Y0, Y0             // s·nd1
	VMOVUPD (R9)(BX*8), Y1
	VMULPD Y15, Y1, Y1                    // k·expRT
	VMULPD (R10)(BX*8), Y1, Y1            // ·nd2
	VSUBPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JB callLoop
	VZEROUPPER
	RET

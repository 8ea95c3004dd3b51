#include "textflag.h"

// func gemmPairAVX(c0, c1, a0, a1, b *float64, bstride, n, k int)
//
// Per block of four k-steps, A's eight values are broadcast into Y0–Y7 and
// the column loop adds four products per row to four C elements at a time,
// as gemmTile4 does per element: c + x0·p, then + x1·q, + x2·s, + x3·t. Each
// add takes its sources in the order Go 1.24 compiles gemmTile4's, so where
// two NaNs meet the same one's payload survives.
TEXT ·gemmPairAVX(SB), NOSPLIT, $0-64
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ b+32(FP), R10
	MOVQ bstride+40(FP), R11
	SHLQ $3, R11              // bytes from one row of B to the next
	MOVQ n+48(FP), R12
	SHLQ $3, R12              // bytes of the columns to walk
	MOVQ k+56(FP), R13

blockLoop:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	VBROADCASTSD 0(R9), Y4
	VBROADCASTSD 8(R9), Y5
	VBROADCASTSD 16(R9), Y6
	VBROADCASTSD 24(R9), Y7
	LEAQ (R10)(R11*1), CX     // rows k+1, k+2, k+3 of B
	LEAQ (CX)(R11*1), DX
	LEAQ (DX)(R11*1), BX
	XORQ AX, AX

colLoop:
	VMOVUPD (R10)(AX*1), Y8   // p
	VMOVUPD (CX)(AX*1), Y9    // q
	VMOVUPD (DX)(AX*1), Y10   // s
	VMOVUPD (BX)(AX*1), Y11   // t
	VMULPD Y8, Y0, Y12
	VADDPD (DI)(AX*1), Y12, Y12
	VMULPD Y9, Y1, Y13
	VADDPD Y12, Y13, Y12
	VMULPD Y10, Y2, Y13
	VADDPD Y12, Y13, Y12
	VMULPD Y11, Y3, Y13
	VADDPD Y13, Y12, Y12
	VMOVUPD Y12, (DI)(AX*1)
	VMULPD Y8, Y4, Y14
	VADDPD (SI)(AX*1), Y14, Y14
	VMULPD Y9, Y5, Y15
	VADDPD Y14, Y15, Y14
	VMULPD Y10, Y6, Y15
	VADDPD Y14, Y15, Y14
	VMULPD Y11, Y7, Y15
	VADDPD Y15, Y14, Y14
	VMOVUPD Y14, (SI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R12
	JB colLoop

	ADDQ $32, R8
	ADDQ $32, R9
	LEAQ (BX)(R11*1), R10     // row k+4 of B
	SUBQ $4, R13
	JNZ blockLoop
	VZEROUPPER
	RET

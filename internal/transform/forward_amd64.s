#include "textflag.h"

// forwardAVX2 is forwardGo with four outputs per register. Both passes are
// the same 8×8 product, out[a][j] = Σk A[a][k]·B[k][j], k ascending: the
// rows take A = the samples, B = cosByX; the columns A = cosTable, B = the
// rows' result. Every lane is one dot8: the first product, then each
// further product added on its own, in forwardGo's order. VMULPD and VADDPD
// round each product and each sum exactly as the scalar code does; nothing
// is fused, reordered or shared. Every instruction is VEX-encoded and the
// kernel ends in VZEROUPPER.
//
// Layouts: src and dst are [8][8]int32 (row y at y*32); cosByX[x][u] is at
// x*64+u*8 and cosTable[v][y] at v*64+y*8; the frame holds the samples as
// doubles (x[y][k] at y*64+k*8) and tmp[y][u] at 512+y*64+u*8.

// TERM adds A[a][k]·B[k] for the four rows a of a quad to Y0..Y7 (row a in
// Y(2a) and Y(2a+1), outputs 0..3 and 4..7): B[k] is at kb(R9), A[a][k] at
// ka+a*64(R8).
#define TERM(ka, kb) \
	VMOVUPD      kb(R9), Y8; VMOVUPD kb+32(R9), Y9; \
	VBROADCASTSD ka(R8), Y10; VMULPD Y8, Y10, Y11; VADDPD Y11, Y0, Y0; VMULPD Y9, Y10, Y12; VADDPD Y12, Y1, Y1; \
	VBROADCASTSD ka+64(R8), Y13; VMULPD Y8, Y13, Y14; VADDPD Y14, Y2, Y2; VMULPD Y9, Y13, Y15; VADDPD Y15, Y3, Y3; \
	VBROADCASTSD ka+128(R8), Y10; VMULPD Y8, Y10, Y11; VADDPD Y11, Y4, Y4; VMULPD Y9, Y10, Y12; VADDPD Y12, Y5, Y5; \
	VBROADCASTSD ka+192(R8), Y13; VMULPD Y8, Y13, Y14; VADDPD Y14, Y6, Y6; VMULPD Y9, Y13, Y15; VADDPD Y15, Y7, Y7

// FIRST starts the sums of Y0..Y7 at their k = 0 products.
#define FIRST \
	VMOVUPD      0(R9), Y8; VMOVUPD 32(R9), Y9; \
	VBROADCASTSD 0(R8), Y10; VMULPD Y8, Y10, Y0; VMULPD Y9, Y10, Y1; \
	VBROADCASTSD 64(R8), Y13; VMULPD Y8, Y13, Y2; VMULPD Y9, Y13, Y3; \
	VBROADCASTSD 128(R8), Y10; VMULPD Y8, Y10, Y4; VMULPD Y9, Y10, Y5; \
	VBROADCASTSD 192(R8), Y13; VMULPD Y8, Y13, Y6; VMULPD Y9, Y13, Y7

// QUAD computes four rows of out into Y0..Y7.
#define QUAD \
	FIRST; \
	TERM(8, 64); \
	TERM(16, 128); \
	TERM(24, 192); \
	TERM(32, 256); \
	TERM(40, 320); \
	TERM(48, 384); \
	TERM(56, 448)

// func forwardAVX2(src, dst *Block)
TEXT ·forwardAVX2(SB), 0, $1024-16
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI

	// The samples as doubles, a row per step.
	MOVQ SP, R8
	MOVQ $8, CX

convert:
	VCVTDQ2PD 0(SI), Y0
	VCVTDQ2PD 16(SI), Y1
	VMOVUPD   Y0, 0(R8)
	VMOVUPD   Y1, 32(R8)
	ADDQ      $32, SI
	ADDQ      $64, R8
	DECQ      CX
	JNZ       convert

	// Rows: tmp[y][u] = Σx src[y][x]·cosTable[u][x], four rows y at a time.
	MOVQ SP, R8
	LEAQ ·cosByX(SB), R9
	LEAQ 512(SP), R10
	MOVQ $2, CX

rows:
	QUAD
	VMOVUPD Y0, 0(R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	VMOVUPD Y4, 128(R10)
	VMOVUPD Y5, 160(R10)
	VMOVUPD Y6, 192(R10)
	VMOVUPD Y7, 224(R10)
	ADDQ    $256, R8
	ADDQ    $256, R10
	DECQ    CX
	JNZ     rows

	// Columns: dst[v][u] = Σy cosTable[v][y]·tmp[y][u], four rows v at a
	// time, rounded to int32.
	LEAQ ·cosTable(SB), R8
	LEAQ 512(SP), R9
	MOVQ $2, CX

cols:
	QUAD
	VCVTPD2DQY Y0, X0
	VCVTPD2DQY Y1, X1
	VCVTPD2DQY Y2, X2
	VCVTPD2DQY Y3, X3
	VCVTPD2DQY Y4, X4
	VCVTPD2DQY Y5, X5
	VCVTPD2DQY Y6, X6
	VCVTPD2DQY Y7, X7
	VMOVDQU    X0, 0(DI)
	VMOVDQU    X1, 16(DI)
	VMOVDQU    X2, 32(DI)
	VMOVDQU    X3, 48(DI)
	VMOVDQU    X4, 64(DI)
	VMOVDQU    X5, 80(DI)
	VMOVDQU    X6, 96(DI)
	VMOVDQU    X7, 112(DI)
	ADDQ       $256, R8
	ADDQ       $128, DI
	DECQ       CX
	JNZ        cols
	VZEROUPPER
	RET

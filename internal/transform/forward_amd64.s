#include "textflag.h"

// forwardSSE2 is forwardGo with two outputs per register. Every lane is one
// dot8: the first product, then each further product added on its own, in
// forwardGo's order. MULPD and ADDPD round each product and each sum exactly
// as the scalar code does; nothing is fused, reordered or shared.
//
// Layouts: src and dst are [8][8]int32 (row y at y*32), cosByX[x][u] is at
// x*64+u*8, cosDup[v][y] (cosTable[v][y] twice) at v*128+y*16, and the row
// pass writes tmp[y][u] to the 512 bytes of the frame at y*64+u*8.

// ROWTERM adds sample k of the row, xk in both lanes, times cosByX[k] (at
// off) to the accumulators X8..X11, which hold outputs (0,1) (2,3) (4,5) (6,7).
#define ROWTERM(off, xk) \
	MOVUPD off(R8), X12; MULPD xk, X12; ADDPD X12, X8; \
	MOVUPD off+16(R8), X13; MULPD xk, X13; ADDPD X13, X9; \
	MOVUPD off+32(R8), X14; MULPD xk, X14; ADDPD X14, X10; \
	MOVUPD off+48(R8), X15; MULPD xk, X15; ADDPD X15, X11

// COLTERM adds row y of the column pair, xy, times cosDup[v][y] (at off for
// the first of four consecutive v) to X8..X11, which hold those four v.
#define COLTERM(off, xy) \
	MOVUPD off(R9), X12; MULPD xy, X12; ADDPD X12, X8; \
	MOVUPD off+128(R9), X13; MULPD xy, X13; ADDPD X13, X9; \
	MOVUPD off+256(R9), X14; MULPD xy, X14; ADDPD X14, X10; \
	MOVUPD off+384(R9), X15; MULPD xy, X15; ADDPD X15, X11

// COLS computes outputs v..v+3 of the column pair in X0..X7, with off the
// offset of cosDup[v][0] and d that of dst[v][u], rounds them to int32 and
// stores them.
#define COLS(off, d) \
	MOVUPD off(R9), X8; MULPD X0, X8; \
	MOVUPD off+128(R9), X9; MULPD X0, X9; \
	MOVUPD off+256(R9), X10; MULPD X0, X10; \
	MOVUPD off+384(R9), X11; MULPD X0, X11; \
	COLTERM(off+16, X1); \
	COLTERM(off+32, X2); \
	COLTERM(off+48, X3); \
	COLTERM(off+64, X4); \
	COLTERM(off+80, X5); \
	COLTERM(off+96, X6); \
	COLTERM(off+112, X7); \
	CVTPD2PL X8, X8; MOVQ X8, d(DI); \
	CVTPD2PL X9, X9; MOVQ X9, d+32(DI); \
	CVTPD2PL X10, X10; MOVQ X10, d+64(DI); \
	CVTPD2PL X11, X11; MOVQ X11, d+96(DI)

// func forwardSSE2(src, dst *Block)
TEXT ·forwardSSE2(SB), 0, $512-16
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	LEAQ ·cosByX(SB), R8
	LEAQ ·cosDup(SB), R9

	// Rows: tmp[y][u] = Σx src[y][x]·cosTable[u][x], two u per register.
	MOVQ SP, R10
	MOVQ $8, CX

rows:
	// The eight samples as doubles, each in both lanes of X0..X7.
	CVTPL2PD 0(SI), X0
	CVTPL2PD 8(SI), X2
	CVTPL2PD 16(SI), X4
	CVTPL2PD 24(SI), X6
	MOVAPD   X0, X1
	UNPCKLPD X0, X0
	UNPCKHPD X1, X1
	MOVAPD   X2, X3
	UNPCKLPD X2, X2
	UNPCKHPD X3, X3
	MOVAPD   X4, X5
	UNPCKLPD X4, X4
	UNPCKHPD X5, X5
	MOVAPD   X6, X7
	UNPCKLPD X6, X6
	UNPCKHPD X7, X7

	MOVUPD 0(R8), X8
	MULPD  X0, X8
	MOVUPD 16(R8), X9
	MULPD  X0, X9
	MOVUPD 32(R8), X10
	MULPD  X0, X10
	MOVUPD 48(R8), X11
	MULPD  X0, X11
	ROWTERM(64, X1)
	ROWTERM(128, X2)
	ROWTERM(192, X3)
	ROWTERM(256, X4)
	ROWTERM(320, X5)
	ROWTERM(384, X6)
	ROWTERM(448, X7)

	MOVUPD X8, 0(R10)
	MOVUPD X9, 16(R10)
	MOVUPD X10, 32(R10)
	MOVUPD X11, 48(R10)
	ADDQ   $32, SI
	ADDQ   $64, R10
	DECQ   CX
	JNZ    rows

	// Columns: dst[v][u] = Σy tmp[y][u]·cosTable[v][y], two u per register.
	MOVQ SP, R10
	MOVQ $4, CX

cols:
	MOVUPD 0(R10), X0
	MOVUPD 64(R10), X1
	MOVUPD 128(R10), X2
	MOVUPD 192(R10), X3
	MOVUPD 256(R10), X4
	MOVUPD 320(R10), X5
	MOVUPD 384(R10), X6
	MOVUPD 448(R10), X7
	COLS(0, 0)
	COLS(512, 128)
	ADDQ   $16, R10
	ADDQ   $8, DI
	DECQ   CX
	JNZ    cols
	RET

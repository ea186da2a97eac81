#include "textflag.h"

// inverseMaskedSSE2 is inverseMaskedGo's sparse path with two of its
// accumulators per register. Every lane is one of s0..s7: it starts at +0
// and takes each product on its own, in the Go kernel's order (v ascending
// in the column pass, u ascending in the row pass). MULPD and ADDPD round
// each product and each sum exactly as the scalar code does; nothing is
// fused, reordered or shared. Rows and columns outside the masks are
// skipped, as they are in Go.
//
// Layouts: src, q and dst are [8][8]int32 (row v at v*32), cosTable[v][y]
// is at v*64+y*8, and the column pass writes tmp[y][u] transposed, to
// u*64+y*8 of the 512-byte frame, so the row pass reads tmp[y][u] and
// tmp[y+1][u] in one load.

// COLTERM adds f (X8, in both lanes) times cosTable[v] (the row at BX) to
// X0..X3, which hold s0..s7 of the column: lanes (0,1) (2,3) (4,5) (6,7).
#define COLTERM \
	MOVUPD 0(BX), X9; MULPD X8, X9; ADDPD X9, X0; \
	MOVUPD 16(BX), X10; MULPD X8, X10; ADDPD X10, X1; \
	MOVUPD 32(BX), X11; MULPD X8, X11; ADDPD X11, X2; \
	MOVUPD 48(BX), X12; MULPD X8, X12; ADDPD X12, X3

// ROWTERM adds tmp[y][u] (X8) times the pair of cosTable[u] at off(BX) to
// acc, and tmp[y+1][u] (X9) times the same pair to acc1, using c and p as
// scratch.
#define ROWTERM(off, acc, acc1, c, p) \
	MOVUPD off(BX), c; MOVAPD c, p; \
	MULPD X8, c; ADDPD c, acc; \
	MULPD X9, p; ADDPD p, acc1

// STOREROW rounds the accumulators a..d (outputs 0..7 of a row) to int32
// and stores them at off(DI).
#define STOREROW(a, b, c, d, off) \
	CVTPD2PL a, a; CVTPD2PL b, b; PUNPCKLQDQ b, a; MOVOU a, off(DI); \
	CVTPD2PL c, c; CVTPD2PL d, d; PUNPCKLQDQ d, c; MOVOU c, off+16(DI)

// func inverseMaskedSSE2(src *Block, q *[64]int32, rows, cols uint, dst *Block)
TEXT ·inverseMaskedSSE2(SB), 0, $512-40
	MOVQ src+0(FP), SI
	MOVQ q+8(FP), DX
	MOVQ rows+16(FP), R9
	MOVQ cols+24(FP), R10
	MOVQ dst+32(FP), DI
	LEAQ ·cosTable(SB), R8
	MOVQ SP, R11

	// Columns: tmp[y][u] = Σv (src[v][u]·q[v][u])·cosTable[v][y], for each
	// u in cols (R12 the columns left, CX = u), v ascending over rows (R13
	// the rows left, AX = v).
	MOVQ  R10, R12
	TESTQ R12, R12
	JZ    rowpass

col:
	BSFQ  R12, CX
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	MOVQ  R9, R13
	TESTQ R13, R13
	JZ    colstore

colterm:
	BSFQ     R13, AX
	LEAQ     (CX)(AX*8), R14
	MOVL     (SI)(R14*4), BX
	IMULL    (DX)(R14*4), BX // wraps like Go's int32 multiply
	CVTSL2SD BX, X8
	UNPCKLPD X8, X8
	SHLQ     $6, AX
	LEAQ     (R8)(AX*1), BX
	COLTERM
	LEAQ     -1(R13), AX
	ANDQ     AX, R13
	JNZ      colterm

colstore:
	MOVQ   CX, AX
	SHLQ   $6, AX
	MOVUPD X0, 0(R11)(AX*1)
	MOVUPD X1, 16(R11)(AX*1)
	MOVUPD X2, 32(R11)(AX*1)
	MOVUPD X3, 48(R11)(AX*1)
	LEAQ   -1(R12), AX
	ANDQ   AX, R12
	JNZ    col

rowpass:
	// Rows: dst[y][x] = Σu tmp[y][u]·cosTable[u][x], u ascending over cols,
	// two rows y, y+1 at a time (X0..X3 and X4..X7); R14 = y*8 is where
	// the pair starts in each transposed column of tmp, DX counts pairs.
	XORQ R14, R14
	MOVQ $4, DX

pair:
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	MOVQ  R10, R12
	TESTQ R12, R12
	JZ    pairstore

rowterm:
	BSFQ     R12, AX
	SHLQ     $6, AX
	LEAQ     (R11)(AX*1), BX
	MOVUPD   (BX)(R14*1), X8
	MOVAPD   X8, X9
	UNPCKLPD X8, X8
	UNPCKHPD X9, X9
	LEAQ     (R8)(AX*1), BX
	ROWTERM(0, X0, X4, X10, X11)
	ROWTERM(16, X1, X5, X12, X13)
	ROWTERM(32, X2, X6, X14, X15)
	ROWTERM(48, X3, X7, X10, X11)
	LEAQ     -1(R12), AX
	ANDQ     AX, R12
	JNZ      rowterm

pairstore:
	STOREROW(X0, X1, X2, X3, 0)
	STOREROW(X4, X5, X6, X7, 32)
	ADDQ $64, DI
	ADDQ $16, R14
	DECQ DX
	JNZ  pair
	RET

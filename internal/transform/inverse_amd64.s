#include "textflag.h"

// inverseMaskedAVX2 is inverseMaskedGo's sparse path with four of its
// accumulators per register. Every lane is one of the Go kernel's sums: it
// starts at +0 and takes each product on its own, in the Go kernel's order
// (v ascending in the column pass, u ascending in the row pass). VMULPD and
// VADDPD round each product and each sum exactly as the scalar code does;
// nothing is fused, reordered or shared. Rows and columns outside the masks
// are skipped, as they are in Go, except that the column pass runs four
// columns per register: a column outside cols in a group it runs holds only
// zero levels and its sums are never read. Every instruction is VEX-encoded
// and the kernel ends in VZEROUPPER.
//
// Layouts: src, q and dst are [8][8]int32 (row v at v*32), cosTable[v][y]
// is at v*64+y*8, and the column pass writes tmp[y][u] to y*64+u*8 of the
// 512-byte frame.

// COLTERM adds the four columns' dequantised levels of row v (Y8) times
// cosTable[v][y] (broadcast from off(BX), off = y*8) to acc, the sums
// tmp[y][u..u+3].
#define COLTERM(off, acc) \
	VBROADCASTSD off(BX), Y9; VMULPD Y8, Y9, Y9; VADDPD Y9, acc, acc

// ROWTERM adds tmp[y][u] (broadcast from off(AX)) times cosTable[u] (Y8,
// Y9: outputs 0..3, 4..7) to the accumulators a, b of row y, with c, p, r
// as scratch.
#define ROWTERM(off, a, b, c, p, r) \
	VBROADCASTSD off(AX), c; \
	VMULPD Y8, c, p; VADDPD p, a, a; \
	VMULPD Y9, c, r; VADDPD r, b, b

// STOREROW rounds the accumulators a, b (outputs 0..3, 4..7 of a row) to
// int32 and stores them at off(DI).
#define STOREROW(a, b, xa, xb, off) \
	VCVTPD2DQY a, xa; VMOVDQU xa, off(DI); \
	VCVTPD2DQY b, xb; VMOVDQU xb, off+16(DI)

// func inverseMaskedAVX2(src *Block, q *[64]int32, rows, cols uint, dst *Block)
TEXT ·inverseMaskedAVX2(SB), 0, $512-40
	MOVQ src+0(FP), SI
	MOVQ q+8(FP), DX
	MOVQ rows+16(FP), R9
	MOVQ cols+24(FP), R10
	MOVQ dst+32(FP), DI
	LEAQ ·cosTable(SB), R8
	MOVQ SP, R11

	// Columns: tmp[y][u] = Σv (src[v][u]·q[v][u])·cosTable[v][y], four
	// columns u per register (CX = u*4 of the group's first, 0 or 16, and
	// R12 the cols bits of the group), v ascending over rows (R13 the rows
	// left, AX = v).
	XORQ CX, CX
	MOVQ R10, R12

colgroup:
	TESTQ $0xF, R12
	JZ    nextgroup
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R9, R13
	TESTQ  R13, R13
	JZ     colstore

colterm:
	BSFQ      R13, AX
	MOVQ      AX, BX
	SHLQ      $5, BX
	ADDQ      CX, BX
	VMOVDQU   (SI)(BX*1), X8
	VPMULLD   (DX)(BX*1), X8, X8 // wraps like Go's int32 multiply
	VCVTDQ2PD X8, Y8
	SHLQ      $6, AX
	LEAQ      (R8)(AX*1), BX
	COLTERM(0, Y0)
	COLTERM(8, Y1)
	COLTERM(16, Y2)
	COLTERM(24, Y3)
	COLTERM(32, Y4)
	COLTERM(40, Y5)
	COLTERM(48, Y6)
	COLTERM(56, Y7)
	LEAQ      -1(R13), AX
	ANDQ      AX, R13
	JNZ       colterm

colstore:
	LEAQ    (R11)(CX*2), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 64(AX)
	VMOVUPD Y2, 128(AX)
	VMOVUPD Y3, 192(AX)
	VMOVUPD Y4, 256(AX)
	VMOVUPD Y5, 320(AX)
	VMOVUPD Y6, 384(AX)
	VMOVUPD Y7, 448(AX)

nextgroup:
	SHRQ  $4, R12
	ADDQ  $16, CX
	CMPQ  CX, $32
	JLT   colgroup

	// Rows: dst[y][x] = Σu tmp[y][u]·cosTable[u][x], u ascending over cols,
	// four rows y..y+3 at a time (Y0..Y7, two registers a row); R14 is
	// where the group's rows start in tmp, DX counts groups.
	MOVQ R11, R14
	MOVQ $2, DX

rowgroup:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R10, R12
	TESTQ  R12, R12
	JZ     rowstore

rowterm:
	BSFQ    R12, CX
	LEAQ    (R14)(CX*8), AX
	SHLQ    $6, CX
	VMOVUPD (R8)(CX*1), Y8
	VMOVUPD 32(R8)(CX*1), Y9
	ROWTERM(0, Y0, Y1, Y10, Y11, Y12)
	ROWTERM(64, Y2, Y3, Y13, Y14, Y15)
	ROWTERM(128, Y4, Y5, Y10, Y11, Y12)
	ROWTERM(192, Y6, Y7, Y13, Y14, Y15)
	LEAQ    -1(R12), CX
	ANDQ    CX, R12
	JNZ     rowterm

rowstore:
	STOREROW(Y0, Y1, X0, X1, 0)
	STOREROW(Y2, Y3, X2, X3, 32)
	STOREROW(Y4, Y5, X4, X5, 64)
	STOREROW(Y6, Y7, X6, X7, 96)
	ADDQ $128, DI
	ADDQ $256, R14
	DECQ DX
	JNZ  rowgroup
	VZEROUPPER
	RET

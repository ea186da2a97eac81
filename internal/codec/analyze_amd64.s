#include "textflag.h"

// The cost analyzer's two pixel kernels: the 2×2 box filter that makes the
// half-resolution plane, and the DC-prediction cost of an 8×8 block of it.

// DOWN16 box-filters the 32-byte pieces of the two source rows (SI, DX)
// at output index BX into the sixteen output bytes at DI+BX. PAND with
// 0x00FF (X7) keeps each 16-bit lane's even byte and PSRLW $8 its odd one,
// so the four taps of output i meet in lane i, summed with the 2 of X6;
// PSRLW $2 rounds as (s+2)/4 does, and since s+2 ≤ 1022 every lane is at
// most 255, which PACKUSWB stores unchanged.
#define DOWN16 \
	MOVOU    (SI)(BX*2), X0; \
	MOVOU    16(SI)(BX*2), X1; \
	MOVOU    (DX)(BX*2), X2; \
	MOVOU    16(DX)(BX*2), X3; \
	MOVO     X0, X4; \
	MOVO     X1, X5; \
	PAND     X7, X0; \
	PAND     X7, X1; \
	PSRLW    $8, X4; \
	PSRLW    $8, X5; \
	PADDW    X4, X0; \
	PADDW    X5, X1; \
	MOVO     X2, X4; \
	MOVO     X3, X5; \
	PAND     X7, X2; \
	PAND     X7, X3; \
	PSRLW    $8, X4; \
	PSRLW    $8, X5; \
	PADDW    X4, X2; \
	PADDW    X5, X3; \
	PADDW    X2, X0; \
	PADDW    X3, X1; \
	PADDW    X6, X0; \
	PADDW    X6, X1; \
	PSRLW    $2, X0; \
	PSRLW    $2, X1; \
	PACKUSWB X1, X0; \
	MOVOU    X0, (DI)(BX*1)

// func downsampleRowSSE2(dst, r0, r1 []byte)
// Requires len(dst) >= 16 and 2·len(dst) bytes in r0 and r1. When len(dst)
// is not a multiple of 16, the last sixteen outputs are computed again
// from len(dst)-16 on: each output depends on its source bytes alone, so
// the overlap stores what it already held.
TEXT ·downsampleRowSSE2(SB), NOSPLIT, $0-72
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    r0_base+24(FP), SI
	MOVQ    r1_base+48(FP), DX
	PCMPEQW X7, X7
	PSRLW   $8, X7         // 0x00FF in each lane
	PCMPEQW X6, X6
	PSRLW   $15, X6
	PSLLW   $1, X6         // 2 in each lane
	LEAQ    -16(CX), R8    // the last chunk's start
	XORQ    BX, BX

loop:
	DOWN16
	ADDQ $16, BX
	CMPQ BX, R8
	JLE  loop
	CMPQ BX, CX
	JEQ  done
	MOVQ R8, BX
	DOWN16

done:
	RET

// func dcCostSSE2(src []byte, stride int) int
// Σ|x − mean| over the 8×8 block whose rows start stride bytes apart at
// src[0], mean = (Σx + 32) / 64. MOVQ and MOVHPS put two rows in each of
// X0–X3; PSADBW against zero sums each register's two 8-byte halves, and
// against the mean broadcast to every byte (mean ≤ 255, since Σx ≤ 16320)
// sums their distances to it, the Go loop's cost exactly.
TEXT ·dcCostSSE2(SB), NOSPLIT, $0-40
	MOVQ   src_base+0(FP), SI
	MOVQ   stride+24(FP), DX
	LEAQ   (DX)(DX*2), CX
	MOVQ   (SI), X0
	MOVHPS (SI)(DX*1), X0
	MOVQ   (SI)(DX*2), X1
	MOVHPS (SI)(CX*1), X1
	LEAQ   (SI)(DX*4), SI
	MOVQ   (SI), X2
	MOVHPS (SI)(DX*1), X2
	MOVQ   (SI)(DX*2), X3
	MOVHPS (SI)(CX*1), X3

	// Σx: four PSADBWs against zero, two partial sums per register.
	PXOR   X7, X7
	MOVO   X0, X4
	MOVO   X1, X5
	PSADBW X7, X4
	PSADBW X7, X5
	PADDQ  X5, X4
	MOVO   X2, X5
	PSADBW X7, X5
	PADDQ  X5, X4
	MOVO   X3, X5
	PSADBW X7, X5
	PADDQ  X5, X4
	PSHUFD $0x4E, X4, X5
	PADDQ  X5, X4
	MOVQ   X4, AX
	ADDQ   $32, AX
	SHRQ   $6, AX

	// The mean in every byte of X6.
	MOVQ      AX, X6
	PUNPCKLBW X6, X6
	PSHUFLW   $0, X6, X6
	PSHUFD    $0, X6, X6

	// Σ|x − mean|.
	PSADBW X6, X0
	PSADBW X6, X1
	PSADBW X6, X2
	PSADBW X6, X3
	PADDQ  X1, X0
	PADDQ  X3, X2
	PADDQ  X2, X0
	PSHUFD $0x4E, X0, X1
	PADDQ  X1, X0
	MOVQ   X0, AX
	MOVQ   AX, ret+32(FP)
	RET

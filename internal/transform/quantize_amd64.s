#include "textflag.h"

// quantizeSSE2 is quantizeGo four coefficients per register: sign and
// magnitude, n = |c| + q>>1, then l = n·r >> 31 with r = ⌈2³¹/q⌉, two
// lanes per PMULULQ. For n < 2¹⁶ that is n/q exactly (DESIGN.md, "Bit-exact
// kernels"), so every |c| must stay below 2¹⁵: X14 collects the OR of the
// magnitudes, and the block is refused if it has a bit at 15 or above —
// MinInt32, whose magnitude is itself, has bit 31. X15 collects the OR of
// the levels for the non-zero flag.

// QUANT4 quantises the four coefficients at off.
#define QUANT4(off) \
	MOVOU   off(SI), X0; \
	MOVO    X0, X1; PSRAL $31, X1; \
	PXOR    X1, X0; PSUBL X1, X0; \
	POR     X0, X14; \
	MOVOU   off(DX), X2; PSRLL $1, X2; PADDL X2, X0; \
	MOVOU   off(CX), X3; \
	MOVO    X0, X4; PSRLQ $32, X4; \
	MOVO    X3, X5; PSRLQ $32, X5; \
	PMULULQ X3, X0; PMULULQ X5, X4; \
	PSRLQ   $31, X0; PSRLQ $31, X4; PSLLQ $32, X4; POR X4, X0; \
	POR     X0, X15; \
	PXOR    X1, X0; PSUBL X1, X0; \
	MOVOU   X0, off(DI)

// func quantizeSSE2(src, dst *Block, q *[64]int32, r *[64]uint32) (nz, ok bool)
TEXT ·quantizeSSE2(SB), NOSPLIT, $0-34
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ q+16(FP), DX
	MOVQ r+24(FP), CX
	PXOR X14, X14
	PXOR X15, X15
	QUANT4(0)
	QUANT4(16)
	QUANT4(32)
	QUANT4(48)
	QUANT4(64)
	QUANT4(80)
	QUANT4(96)
	QUANT4(112)
	QUANT4(128)
	QUANT4(144)
	QUANT4(160)
	QUANT4(176)
	QUANT4(192)
	QUANT4(208)
	QUANT4(224)
	QUANT4(240)

	PXOR     X13, X13
	PCMPEQL  X13, X15
	PMOVMSKB X15, AX
	CMPL     AX, $0xFFFF
	SETNE    nz+32(FP)
	PSRLL    $15, X14
	PCMPEQL  X13, X14
	PMOVMSKB X14, AX
	CMPL     AX, $0xFFFF
	SETEQ    ok+33(FP)
	RET

#include "textflag.h"

// quantizeAVX2 is quantizeGo eight coefficients per register: magnitude
// n = |c| + q>>1, then l = n·r >> 31 with r = ⌈2³¹/q⌉, four lanes per
// VPMULUDQ, and c's sign put back. For n < 2¹⁶ that is n/q exactly
// (DESIGN.md, "Bit-exact kernels"), so every |c| must stay below 2¹⁵: Y14
// collects the OR of the magnitudes, and the block is refused if it has a
// bit at 15 or above — MinInt32, whose magnitude is itself, has bit 31. Y15
// collects the OR of the levels for the non-zero flag. Every instruction is
// VEX-encoded and the kernel ends in VZEROUPPER.

// QUANT8 quantises the eight coefficients at off.
#define QUANT8(off) \
	VMOVDQU  off(SI), Y0; \
	VPABSD   Y0, Y1; \
	VPOR     Y1, Y14, Y14; \
	VMOVDQU  off(DX), Y2; VPSRLD $1, Y2, Y2; VPADDD Y2, Y1, Y1; \
	VMOVDQU  off(CX), Y3; \
	VPSRLQ   $32, Y1, Y4; VPSRLQ $32, Y3, Y5; \
	VPMULUDQ Y3, Y1, Y1; VPMULUDQ Y5, Y4, Y4; \
	VPSRLQ   $31, Y1, Y1; VPSRLQ $31, Y4, Y4; VPSLLQ $32, Y4, Y4; VPOR Y4, Y1, Y1; \
	VPOR     Y1, Y15, Y15; \
	VPSIGND  Y0, Y1, Y1; \
	VMOVDQU  Y1, off(DI)

// func quantizeAVX2(src, dst *Block, q *[64]int32, r *[64]uint32) (nz, ok bool)
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-34
	MOVQ   src+0(FP), SI
	MOVQ   dst+8(FP), DI
	MOVQ   q+16(FP), DX
	MOVQ   r+24(FP), CX
	VPXOR  Y14, Y14, Y14
	VPXOR  Y15, Y15, Y15
	QUANT8(0)
	QUANT8(32)
	QUANT8(64)
	QUANT8(96)
	QUANT8(128)
	QUANT8(160)
	QUANT8(192)
	QUANT8(224)

	VPTEST     Y15, Y15
	SETNE      nz+32(FP)
	VPSRLD     $15, Y14, Y14
	VPTEST     Y14, Y14
	SETEQ      ok+33(FP)
	VZEROUPPER
	RET

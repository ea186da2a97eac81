#include "textflag.h"

// The encoder's glue between pixels and the int32 transform blocks, 8×8 at
// a time. A row of eight bytes is widened to two registers of four int32
// lanes by interleaving it with zeros (X7) twice: PUNPCKLBW makes eight
// uint16s, PUNPCKLWL and PUNPCKHWL the low and high four int32s.

// WIDEN loads the eight pixels at SI into X0 (low four) and X1 (high four)
// as int32s and steps SI on by one row.
#define WIDEN \
	MOVQ      (SI), X0; \
	PUNPCKLBW X7, X0; \
	MOVO      X0, X1; \
	PUNPCKLWL X7, X0; \
	PUNPCKHWL X7, X1; \
	ADDQ      DX, SI

// FETCH stores one widened row off bytes into dst.
#define FETCH(off) \
	WIDEN; \
	MOVOU X0, off(DI); \
	MOVOU X1, off+16(DI)

// RESID stores one widened row minus the prediction off bytes into pred;
// PSUBL wraps, as Go's int32 subtraction does.
#define RESID(off) \
	WIDEN; \
	MOVOU off(CX), X2; \
	MOVOU off+16(CX), X3; \
	PSUBL X2, X0; \
	PSUBL X3, X1; \
	MOVOU X0, off(DI); \
	MOVOU X1, off+16(DI)

// func fetchSSE2(dst *transform.Block, src []byte, stride int)
TEXT ·fetchSSE2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src_base+8(FP), SI
	MOVQ stride+32(FP), DX
	PXOR X7, X7
	FETCH(0)
	FETCH(32)
	FETCH(64)
	FETCH(96)
	FETCH(128)
	FETCH(160)
	FETCH(192)
	FETCH(224)
	RET

// func residualSSE2(dst *transform.Block, src []byte, stride int, pred *transform.Block)
TEXT ·residualSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src_base+8(FP), SI
	MOVQ stride+32(FP), DX
	MOVQ pred+40(FP), CX
	PXOR X7, X7
	RESID(0)
	RESID(32)
	RESID(64)
	RESID(96)
	RESID(128)
	RESID(160)
	RESID(192)
	RESID(224)
	RET

// ZERO16 sets bit i of reg when level i of the sixteen off bytes into the
// block is zero. PACKSSLW and PACKSSWB narrow the sixteen int32s to bytes
// with signed saturation, which maps zero to zero and every other value to
// a non-zero byte (65536 to 127, -65536 to -128); PCMPEQB against zero and
// PMOVMSKB collect one bit per byte, in raster order.
#define ZERO16(off, reg) \
	MOVOU    off(SI), X0; \
	MOVOU    off+16(SI), X1; \
	MOVOU    off+32(SI), X2; \
	MOVOU    off+48(SI), X3; \
	PACKSSLW X1, X0; \
	PACKSSLW X3, X2; \
	PACKSSWB X2, X0; \
	PCMPEQB  X7, X0; \
	PMOVMSKB X0, reg

// func nonZeroSSE2(lev *transform.Block) uint64
TEXT ·nonZeroSSE2(SB), NOSPLIT, $0-16
	MOVQ lev+0(FP), SI
	PXOR X7, X7
	ZERO16(0, AX)
	ZERO16(64, BX)
	ZERO16(128, CX)
	ZERO16(192, DX)
	SHLQ $16, BX
	SHLQ $32, CX
	SHLQ $48, DX
	ORQ  BX, AX
	ORQ  CX, AX
	ORQ  DX, AX
	NOTQ AX
	MOVQ AX, ret+8(FP)
	RET

#include "textflag.h"

// The reconstruct store, two rows of eight int32 samples per step. A row
// is two registers of four lanes; PACKSSLW (PACKSSDW) narrows the pair to
// eight int16s with signed saturation, and PACKUSWB narrows two such rows
// to sixteen bytes with unsigned saturation — the composition clamps every
// int32 to [0, 255]. The low quadword is row y, the high one row y+1.

// PUT2 stores the sixteen bytes in X0 as two rows, at DI and DI+DX, and
// steps DI on by two rows.
#define PUT2 \
	MOVQ     X0, (DI); \
	PSRLO    $8, X0; \
	MOVQ     X0, (DI)(DX*1); \
	LEAQ     (DI)(DX*2), DI

// PRED2 stores clamp(pred) for the two rows starting off bytes into pred.
#define PRED2(off) \
	MOVOU    off(SI), X0; \
	MOVOU    off+16(SI), X1; \
	MOVOU    off+32(SI), X2; \
	MOVOU    off+48(SI), X3; \
	PACKSSLW X1, X0; \
	PACKSSLW X3, X2; \
	PACKUSWB X2, X0; \
	PUT2

// RES2 stores clamp(pred + res) for the two rows starting off bytes into
// pred and res; PADDL wraps, as Go's int32 addition does.
#define RES2(off) \
	MOVOU    off(SI), X0; \
	MOVOU    off+16(SI), X1; \
	MOVOU    off+32(SI), X2; \
	MOVOU    off+48(SI), X3; \
	MOVOU    off(CX), X4; \
	MOVOU    off+16(CX), X5; \
	MOVOU    off+32(CX), X6; \
	MOVOU    off+48(CX), X7; \
	PADDL    X4, X0; \
	PADDL    X5, X1; \
	PADDL    X6, X2; \
	PADDL    X7, X3; \
	PACKSSLW X1, X0; \
	PACKSSLW X3, X2; \
	PACKUSWB X2, X0; \
	PUT2

// func storeResidualSSE2(dst []byte, stride int, pred, res *transform.Block)
TEXT ·storeResidualSSE2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ stride+24(FP), DX
	MOVQ pred+32(FP), SI
	MOVQ res+40(FP), CX
	RES2(0)
	RES2(64)
	RES2(128)
	RES2(192)
	RET

// func storePredSSE2(dst []byte, stride int, pred *transform.Block)
TEXT ·storePredSSE2(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ stride+24(FP), DX
	MOVQ pred+32(FP), SI
	PRED2(0)
	PRED2(64)
	PRED2(128)
	PRED2(192)
	RET

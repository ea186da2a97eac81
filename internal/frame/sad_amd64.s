#include "textflag.h"

// SADROW adds the SAD of one row, loaded with load (MOVQ for 8 pixels, MOVOU
// for 16), to AX and leaves for done once AX reaches the bound, as
// sadBoundedGo does after every row. PSADBW sums each 8-byte half into its
// own quadword; the fold adds the high one into the low one (zero for an
// 8-pixel row).
#define SADROW(load) \
	load   (SI), X0; \
	load   (DI), X1; \
	PSADBW X1, X0; \
	PSHUFD $0x4E, X0, X1; \
	PADDQ  X1, X0; \
	MOVQ   X0, BX; \
	ADDQ   BX, AX; \
	CMPQ   AX, DX; \
	JGE    done; \
	ADDQ   R8, SI; \
	ADDQ   R9, DI

// func sadRows(a []byte, astride int, b []byte, bstride int, w, h, bound int) int
TEXT ·sadRows(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ astride+24(FP), R8
	MOVQ b_base+32(FP), DI
	MOVQ bstride+56(FP), R9
	MOVQ h+72(FP), CX
	MOVQ bound+80(FP), DX
	XORQ AX, AX
	CMPQ w+64(FP), $16
	JEQ  wide

narrow:
	SADROW(MOVQ)
	DECQ CX
	JNZ  narrow
	JMP  done

wide:
	SADROW(MOVOU)
	DECQ CX
	JNZ  wide

done:
	MOVQ AX, ret+88(FP)
	RET

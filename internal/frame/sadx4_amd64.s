#include "textflag.h"

// The four-candidate SAD kernels, apart from sad_amd64.s because they are
// AVX2: every instruction on an X or Y register is VEX-encoded and every
// return clears the upper halves, so the SSE2 kernels that run next pay no
// state transition.

// func sadX4AVX2(a []byte, astride int, b []byte, bstride int, offs *[4]int, w int, sads *[4]int)
//
// sads[i] = the SAD of the w×w block at a[0] against the one at
// b[offs[i]], every row summed. SI walks a; R10-R13 walk the four
// candidates.
TEXT ·sadX4AVX2(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ astride+24(FP), R8
	MOVQ b_base+32(FP), DI
	MOVQ bstride+56(FP), R9
	MOVQ offs+64(FP), AX
	MOVQ 0(AX), R10
	MOVQ 8(AX), R11
	MOVQ 16(AX), R12
	MOVQ 24(AX), R13
	ADDQ DI, R10
	ADDQ DI, R11
	ADDQ DI, R12
	ADDQ DI, R13
	MOVQ w+72(FP), CX
	MOVQ sads+80(FP), DX
	CMPQ CX, $16
	JEQ  wide

	// 8×8: one row a step. The block's row, broadcast to all four quadwords,
	// meets the four candidates' rows side by side, so one VPSADBW yields
	// each candidate's row SAD in its own quadword of Y0.
	VPXOR Y0, Y0, Y0

narrow:
	VPBROADCASTQ (SI), Y5
	VMOVQ        (R10), X1
	VPINSRQ      $1, (R11), X1, X1
	VMOVQ        (R12), X2
	VPINSRQ      $1, (R13), X2, X2
	VINSERTI128  $1, X2, Y1, Y1
	VPSADBW      Y5, Y1, Y1
	VPADDQ       Y1, Y0, Y0
	ADDQ         R8, SI
	ADDQ         R9, R10
	ADDQ         R9, R11
	ADDQ         R9, R12
	ADDQ         R9, R13
	DECQ         CX
	JNZ          narrow
	VMOVDQU      Y0, (DX)
	VZEROUPPER
	RET

	// 16×16: two rows a step, the second in the upper lane, so one VPSADBW
	// sums 32 pixels of a candidate into four quadwords; Y1-Y4 accumulate
	// the four candidates.
wide:
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4

pairs:
	VMOVDQU     (SI), X5
	VINSERTI128 $1, (SI)(R8*1), Y5, Y5
	VMOVDQU     (R10), X6
	VINSERTI128 $1, (R10)(R9*1), Y6, Y6
	VPSADBW     Y5, Y6, Y6
	VPADDQ      Y6, Y1, Y1
	VMOVDQU     (R11), X7
	VINSERTI128 $1, (R11)(R9*1), Y7, Y7
	VPSADBW     Y5, Y7, Y7
	VPADDQ      Y7, Y2, Y2
	VMOVDQU     (R12), X8
	VINSERTI128 $1, (R12)(R9*1), Y8, Y8
	VPSADBW     Y5, Y8, Y8
	VPADDQ      Y8, Y3, Y3
	VMOVDQU     (R13), X9
	VINSERTI128 $1, (R13)(R9*1), Y9, Y9
	VPSADBW     Y5, Y9, Y9
	VPADDQ      Y9, Y4, Y4
	LEAQ        (SI)(R8*2), SI
	LEAQ        (R10)(R9*2), R10
	LEAQ        (R11)(R9*2), R11
	LEAQ        (R12)(R9*2), R12
	LEAQ        (R13)(R9*2), R13
	SUBQ        $2, CX
	JNZ         pairs

	// Fold each accumulator's four quadwords into one: interleave the pairs
	// (Y1, Y2) and (Y3, Y4) and add, then add the low lanes to the high.
	VPUNPCKLQDQ Y2, Y1, Y5
	VPUNPCKHQDQ Y2, Y1, Y6
	VPADDQ      Y6, Y5, Y5
	VPUNPCKLQDQ Y4, Y3, Y6
	VPUNPCKHQDQ Y4, Y3, Y7
	VPADDQ      Y7, Y6, Y6
	VPERM2I128  $0x20, Y6, Y5, Y7
	VPERM2I128  $0x31, Y6, Y5, Y8
	VPADDQ      Y8, Y7, Y7
	VMOVDQU     Y7, (DX)
	VZEROUPPER
	RET

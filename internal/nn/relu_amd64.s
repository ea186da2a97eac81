#include "textflag.h"

// func reluSSE2(in, out *float32, n int)
//
// reluGo four values per register. MAXPS X0, X1 with X0 = +0 returns
// X1 > +0 ? X1 : +0 in each lane: the comparison is false for a negative
// value, for -0 and for a NaN, and MAXPS then returns its second operand,
// the +0 of X0; a positive value, denormals and +Inf included, is kept.
// That is reluGo's rule, with no test of the data in Go. n is a multiple
// of four; sixteen values per iteration, then four. out may be in.
TEXT ·reluSSE2(SB), NOSPLIT, $0-24
	MOVQ    in+0(FP), SI
	MOVQ    out+8(FP), DI
	MOVQ    n+16(FP), CX
	XORPS   X0, X0
	CMPQ    CX, $16
	JLT     fours

sixteens:
	MOVUPS  0(SI), X1
	MOVUPS  16(SI), X2
	MOVUPS  32(SI), X3
	MOVUPS  48(SI), X4
	MAXPS   X0, X1
	MAXPS   X0, X2
	MAXPS   X0, X3
	MAXPS   X0, X4
	MOVUPS  X1, 0(DI)
	MOVUPS  X2, 16(DI)
	MOVUPS  X3, 32(DI)
	MOVUPS  X4, 48(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     sixteens

fours:
	CMPQ    CX, $4
	JLT     done
	MOVUPS  (SI), X1
	MAXPS   X0, X1
	MOVUPS  X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX
	JMP     fours

done:
	RET

#include "textflag.h"

// The two loops of Conv2D.forwardItem, four float32 lanes per register,
// and the finiteness scan that licenses its zero-pair skip. Every lane of
// the loops performs exactly the Go statement `acc += float32(w*x)` once
// per tap, in (ic, ky, kx) order: MULPS rounds each product to float32 and
// ADDPS adds it to the lane's sum, both under Go's round-to-nearest-even
// MXCSR, and no fused multiply-add is named (make test-fma greps for one).

// S1GROUP adds the nine taps of four neighbouring outputs at stride 1
// into X0: the outputs read four neighbouring samples per tap, from the
// rows at R10, R10+BX and R10+2·BX.
#define S1GROUP \
	MOVUPS 0(R10), X1; MULPS X7, X1; ADDPS X1, X0; \
	MOVUPS 4(R10), X1; MULPS X8, X1; ADDPS X1, X0; \
	MOVUPS 8(R10), X1; MULPS X9, X1; ADDPS X1, X0; \
	MOVUPS 0(R10)(BX*1), X1; MULPS X10, X1; ADDPS X1, X0; \
	MOVUPS 4(R10)(BX*1), X1; MULPS X11, X1; ADDPS X1, X0; \
	MOVUPS 8(R10)(BX*1), X1; MULPS X12, X1; ADDPS X1, X0; \
	MOVUPS 0(R10)(BX*2), X1; MULPS X13, X1; ADDPS X1, X0; \
	MOVUPS 4(R10)(BX*2), X1; MULPS X14, X1; ADDPS X1, X0; \
	MOVUPS 8(R10)(BX*2), X1; MULPS X15, X1; ADDPS X1, X0

// S2ROW adds one tap row at stride 2 into X0. The four outputs' taps are
// samples r0 r2 r4 r6 (kx 0), r1 r3 r5 r7 (kx 1) and r2 r4 r6 r8 (kx 2) of
// the row: SHUFPS $0x88 and $0xDD split r0..r7, loaded at a0 and a16, into
// its even and odd samples, and $0xD8 takes r2 r4 and r6 r8 from r2..r5 and
// r5..r8, loaded at a8 and a20, so no load reaches past r8.
#define S2ROW(a0, a16, a8, a20, wa, wb, wc) \
	MOVUPS a0, X1; MOVUPS a16, X2; MOVAPS X1, X3; \
	SHUFPS $0x88, X2, X1; SHUFPS $0xDD, X2, X3; \
	MOVUPS a8, X4; MOVUPS a20, X5; SHUFPS $0xD8, X5, X4; \
	MULPS wa, X1; ADDPS X1, X0; \
	MULPS wb, X3; ADDPS X3, X0; \
	MULPS wc, X4; ADDPS X4, X0

// S2GROUP is S1GROUP at stride 2.
#define S2GROUP \
	S2ROW(0(R10), 16(R10), 8(R10), 20(R10), X7, X8, X9); \
	S2ROW(0(R10)(BX*1), 16(R10)(BX*1), 8(R10)(BX*1), 20(R10)(BX*1), X10, X11, X12); \
	S2ROW(0(R10)(BX*2), 16(R10)(BX*2), 8(R10)(BX*2), 20(R10)(BX*2), X13, X14, X15)

// TAILSTORE stores X0 to the group at R11 in the lanes X6 selects and puts
// the other lanes' values back as they were.
#define TAILSTORE \
	MOVUPS (R11), X1; MOVAPS X6, X2; ANDNPS X1, X2; \
	ANDPS  X6, X0; ORPS X2, X0; MOVUPS X0, (R11)

// tailMask<>+16·t keeps the last t lanes of a group.
DATA tailMask<>+0x10(SB)/4, $0
DATA tailMask<>+0x14(SB)/4, $0
DATA tailMask<>+0x18(SB)/4, $0
DATA tailMask<>+0x1c(SB)/4, $0xffffffff
DATA tailMask<>+0x20(SB)/4, $0
DATA tailMask<>+0x24(SB)/4, $0
DATA tailMask<>+0x28(SB)/4, $0xffffffff
DATA tailMask<>+0x2c(SB)/4, $0xffffffff
DATA tailMask<>+0x30(SB)/4, $0
DATA tailMask<>+0x34(SB)/4, $0xffffffff
DATA tailMask<>+0x38(SB)/4, $0xffffffff
DATA tailMask<>+0x3c(SB)/4, $0xffffffff
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func interiorSSE2(w *[9]float32, in, out *float32, inW, outW, rows, cols, stride int)
//
// The nine weights sit broadcast in X7..X15 for the whole sweep; X0 is one
// group's four outputs, loaded, given its nine taps and stored back. A row
// of cols >= 4 outputs is cols/4 groups, then, for the cols%4 outputs left,
// one more group that ends at the row's last output: it recomputes outputs
// the last full group has already given this pair's taps, and TAILSTORE
// keeps only the new ones.
TEXT ·interiorSSE2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), AX
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DI
	MOVQ inW+24(FP), BX
	SHLQ $2, BX                // bytes from one input row to the next
	MOVQ outW+32(FP), DX
	SHLQ $2, DX                // bytes from one output row to the next
	MOVQ rows+40(FP), CX
	MOVQ cols+48(FP), R8
	MOVQ R8, R9
	ANDQ $3, R9                // outputs left after the full groups
	SHRQ $2, R8                // full groups
	MOVQ $4, R14
	SUBQ R9, R14
	SHLQ $2, R14               // bytes from the last full group back to the tail group
	SHLQ $4, R9
	LEAQ tailMask<>(SB), R13
	MOVUPS (R13)(R9*1), X6
	SHRQ $4, R9

	MOVSS  0(AX), X7
	SHUFPS $0x00, X7, X7
	MOVSS  4(AX), X8
	SHUFPS $0x00, X8, X8
	MOVSS  8(AX), X9
	SHUFPS $0x00, X9, X9
	MOVSS  12(AX), X10
	SHUFPS $0x00, X10, X10
	MOVSS  16(AX), X11
	SHUFPS $0x00, X11, X11
	MOVSS  20(AX), X12
	SHUFPS $0x00, X12, X12
	MOVSS  24(AX), X13
	SHUFPS $0x00, X13, X13
	MOVSS  28(AX), X14
	SHUFPS $0x00, X14, X14
	MOVSS  32(AX), X15
	SHUFPS $0x00, X15, X15

	CMPQ stride+56(FP), $2
	JEQ  stride2

stride1:
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ R8, R12

s1group:
	MOVUPS (R11), X0
	S1GROUP
	MOVUPS X0, (R11)
	ADDQ   $16, R10
	ADDQ   $16, R11
	DECQ   R12
	JNZ    s1group

	TESTQ  R9, R9
	JZ     s1next
	SUBQ   R14, R10
	SUBQ   R14, R11
	MOVUPS (R11), X0
	S1GROUP
	TAILSTORE

s1next:
	ADDQ BX, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  stride1
	RET

stride2:
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ R8, R12

s2group:
	MOVUPS (R11), X0
	S2GROUP
	MOVUPS X0, (R11)
	ADDQ   $32, R10
	ADDQ   $16, R11
	DECQ   R12
	JNZ    s2group

	TESTQ  R9, R9
	JZ     s2next
	SUBQ   R14, R10
	SUBQ   R14, R10
	SUBQ   R14, R11
	MOVUPS (R11), X0
	S2GROUP
	TAILSTORE

s2next:
	LEAQ (SI)(BX*2), SI
	ADDQ DX, DI
	DECQ CX
	JNZ  stride2
	RET

// func panelSSE2(w, x *float32, sums *[16]float32, run uint64, plane, inW, k, rows, cols int)
//
// X0..X3 are the sixteen sums, filters 0-3, 4-7, 8-11 and 12-15. The panel
// holds each tap's sixteen weights together, taps in (ic, ky, kx) order,
// so a tap is one broadcast input value and four MULPS/ADDPS pairs.
TEXT ·panelSSE2(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ sums+16(FP), DI
	MOVQ run+24(FP), R8
	MOVQ plane+32(FP), R9
	SHLQ $2, R9                // bytes from one input channel to the next
	MOVQ inW+40(FP), R10
	SHLQ $2, R10               // bytes from one input row to the next
	MOVQ k+48(FP), R11
	MOVQ R11, R12
	SHLQ $6, R11               // bytes from one panel row to the next: k taps of 64
	IMULQ R11, R12             // bytes from one panel channel to the next

	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3

channel:
	BSFQ  R8, CX               // the lowest channel left in run
	MOVQ  CX, R13
	IMULQ R9, R13
	ADDQ  SI, R13              // its first input sample
	IMULQ R12, CX
	ADDQ  AX, CX               // its first panel tap
	MOVQ  rows+56(FP), R14

row:
	MOVQ R13, BX
	MOVQ CX, DI
	MOVQ cols+64(FP), DX

tap:
	MOVSS  (BX), X4
	SHUFPS $0x00, X4, X4
	MOVUPS 0(DI), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS 16(DI), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS 32(DI), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS 48(DI), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $4, BX
	ADDQ   $64, DI
	DECQ   DX
	JNZ    tap

	ADDQ R10, R13
	ADDQ R11, CX
	DECQ R14
	JNZ  row

	LEAQ -1(R8), DX
	ANDQ DX, R8                // drop the channel just run
	JNZ  channel

	MOVQ   sums+16(FP), DI
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

// func allFiniteSSE2(v *float32, n int) bool
//
// allFiniteGo four values per register: a value is NaN or ±Inf when its
// magnitude bits are 0x7f800000 or more, which is when adding one more
// exponent step carries into bit 31. Each value's magnitude plus the step
// is ORed into X0, sixteen values per iteration and then four, and
// MOVMSKPS reads the four sign bits.
TEXT ·allFiniteSSE2(SB), NOSPLIT, $0-17
	MOVQ    v+0(FP), SI
	MOVQ    n+8(FP), CX
	MOVL    $0x7fffffff, AX
	MOVL    AX, X6
	PSHUFD  $0x00, X6, X6
	MOVL    $0x00800000, AX
	MOVL    AX, X7
	PSHUFD  $0x00, X7, X7
	PXOR    X0, X0
	CMPQ    CX, $16
	JLT     fours

sixteens:
	MOVUPS  0(SI), X1
	MOVUPS  16(SI), X2
	MOVUPS  32(SI), X3
	MOVUPS  48(SI), X4
	PAND    X6, X1
	PAND    X6, X2
	PAND    X6, X3
	PAND    X6, X4
	PADDL   X7, X1
	PADDL   X7, X2
	PADDL   X7, X3
	PADDL   X7, X4
	POR     X1, X0
	POR     X2, X3
	POR     X3, X4
	POR     X4, X0
	ADDQ    $64, SI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     sixteens

fours:
	CMPQ    CX, $4
	JLT     done
	MOVUPS  (SI), X1
	PAND    X6, X1
	PADDL   X7, X1
	POR     X1, X0
	ADDQ    $16, SI
	SUBQ    $4, CX
	JMP     fours

done:
	MOVMSKPS X0, AX
	TESTL    AX, AX
	SETEQ    ret+16(FP)
	RET

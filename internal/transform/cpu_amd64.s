#include "textflag.h"

// func probeAVX2() bool
//
// AVX2 is usable when CPUID leaf 1 reports OSXSAVE (ECX bit 27) and AVX
// (bit 28), XCR0 shows the OS saving the XMM and YMM state (bits 1 and 2),
// and CPUID leaf 7 reports AVX2 (EBX bit 5).
TEXT ·probeAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   done
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<27|1<<28), CX
	CMPL  CX, $(1<<27|1<<28)
	JNE   done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	SETCS ret+0(FP)

done:
	RET

#include "textflag.h"

// func stepRow2(k *rowArgs, w, v, src, dst *float64, n int)
//
// The SSE2 row kernel; see row_amd64.go for the contract. k's coefficients
// are broadcast to both lanes of X8-X14 (m, lr, a, b, wd, lrt, ar, in
// rowArgs' field order) and X7 holds +0. The mode bits are tested in the
// loop: the branches are loop-invariant, so they predict perfectly.
TEXT ·stepRow2(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), AX
	MOVQ w+8(FP), DI
	MOVQ v+16(FP), SI
	MOVQ src+24(FP), R8
	MOVQ dst+32(FP), R9
	MOVQ n+40(FP), DX
	MOVSD 0(AX), X8
	UNPCKLPD X8, X8
	MOVSD 8(AX), X9
	UNPCKLPD X9, X9
	MOVSD 16(AX), X10
	UNPCKLPD X10, X10
	MOVSD 24(AX), X11
	UNPCKLPD X11, X11
	MOVSD 32(AX), X12
	UNPCKLPD X12, X12
	MOVSD 40(AX), X13
	UNPCKLPD X13, X13
	MOVSD 48(AX), X14
	UNPCKLPD X14, X14
	MOVQ 56(AX), CX
	XORPD X7, X7
	XORQ BX, BX

loop:
	MOVUPD (DI)(BX*8), X0 // w
	MOVUPD (R8)(BX*8), X2 // g = src
	TESTQ $1, CX          // rowOuter: g = 0 + ar·b
	JZ    decay
	MULPD X14, X2
	ADDPD X7, X2

decay:
	TESTQ $2, CX // rowDecay: g += wd·w
	JZ    momentum
	MOVAPD X0, X3
	MULPD X12, X3
	ADDPD X3, X2

momentum:
	MOVUPD (SI)(BX*8), X1 // v' = m·v + g
	MULPD  X8, X1
	ADDPD  X2, X1
	MOVAPD X1, X4         // w' = w − lr·(a·v' + b·g)
	MULPD  X10, X4
	MULPD  X11, X2
	ADDPD  X2, X4
	MULPD  X9, X4
	SUBPD  X4, X0
	MOVUPD X0, (DI)(BX*8)
	MOVUPD X1, (SI)(BX*8)
	TESTQ  $4, CX         // rowPredict: dst = w' − lrt·v'
	JZ     next
	MULPD  X13, X1
	SUBPD  X1, X0
	MOVUPD X0, (R9)(BX*8)

next:
	ADDQ $2, BX
	CMPQ BX, DX
	JLT  loop
	RET

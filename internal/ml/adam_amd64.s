#include "textflag.h"

// func adamStep(p, g, m, v []float64, k adamCoeffs)
//
// Per element, in adamStepGo's order:
//	g' = g + wd·p                  (only when k.decay)
//	m  = beta1·m + ob1·g'
//	v  = beta2·v + (ob2·g')·g'
//	p  = p − lr·(m/c1) / (sqrt(v/c2) + eps)
// Operands are swapped only where IEEE addition or multiplication
// commutes, so every lane rounds exactly as the scalar Go does. SSE2 only.
//
// X7–X15 hold the broadcast coefficients; DI, SI, R8, R9 walk p, g, m, v;
// CX counts the elements left; DX is the decay flag.
TEXT ·adamStep(SB), NOSPLIT, $0-176
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVSD    k_wd+96(FP), X7
	UNPCKLPD X7, X7
	MOVSD    k_beta1+104(FP), X8
	UNPCKLPD X8, X8
	MOVSD    k_ob1+112(FP), X9
	UNPCKLPD X9, X9
	MOVSD    k_beta2+120(FP), X10
	UNPCKLPD X10, X10
	MOVSD    k_ob2+128(FP), X11
	UNPCKLPD X11, X11
	MOVSD    k_lr+136(FP), X12
	UNPCKLPD X12, X12
	MOVSD    k_c1+144(FP), X13
	UNPCKLPD X13, X13
	MOVSD    k_c2+152(FP), X14
	UNPCKLPD X14, X14
	MOVSD    k_eps+160(FP), X15
	UNPCKLPD X15, X15
	MOVBQZX  k_decay+168(FP), DX

pair:
	CMPQ CX, $2
	JLT  single
	MOVUPD (SI), X0
	MOVUPD (DI), X1
	TESTQ  DX, DX
	JZ     pairmoments
	MOVAPD X1, X2
	MULPD  X7, X2
	ADDPD  X2, X0

pairmoments:
	MOVUPD (R8), X2
	MULPD  X8, X2
	MOVAPD X0, X3
	MULPD  X9, X3
	ADDPD  X3, X2
	MOVUPD X2, (R8)
	MOVUPD (R9), X4
	MULPD  X10, X4
	MOVAPD X0, X5
	MULPD  X11, X5
	MULPD  X0, X5
	ADDPD  X5, X4
	MOVUPD X4, (R9)
	DIVPD  X13, X2
	MULPD  X12, X2
	DIVPD  X14, X4
	SQRTPD X4, X4
	ADDPD  X15, X4
	DIVPD  X4, X2
	SUBPD  X2, X1
	MOVUPD X1, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	ADDQ   $16, R8
	ADDQ   $16, R9
	SUBQ   $2, CX
	JMP    pair

single:
	CMPQ CX, $1
	JLT  done
	MOVSD (SI), X0
	MOVSD (DI), X1
	TESTQ DX, DX
	JZ    singlemoments
	MOVSD X1, X2
	MULSD X7, X2
	ADDSD X2, X0

singlemoments:
	MOVSD  (R8), X2
	MULSD  X8, X2
	MOVSD  X0, X3
	MULSD  X9, X3
	ADDSD  X3, X2
	MOVSD  X2, (R8)
	MOVSD  (R9), X4
	MULSD  X10, X4
	MOVSD  X0, X5
	MULSD  X11, X5
	MULSD  X0, X5
	ADDSD  X5, X4
	MOVSD  X4, (R9)
	DIVSD  X13, X2
	MULSD  X12, X2
	DIVSD  X14, X4
	SQRTSD X4, X4
	ADDSD  X15, X4
	DIVSD  X4, X2
	SUBSD  X2, X1
	MOVSD  X1, (DI)

done:
	RET

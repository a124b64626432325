#include "textflag.h"

// func mulRow(dst, v []float64, off []int, b []float64)
//
// Each output column keeps its own running sum, started from dst and added
// to term by term in list order with MULPD then ADDPD (two roundings, as
// Go's v*x + s on amd64), so every lane computes exactly what mulRowGo
// computes for its column. SSE2 only: no FMA, no CPU feature check.
//
// DI walks dst, CX counts the columns left, R9 is &b[j] for the first
// column of the current block, SI/R8 are v and off, DX is len(v) and AX
// the term index.

// TERM8 adds term t = AX+i to the four accumulators: X4 = [v[t], v[t]],
// BX = off[t].
#define TERM8(i) \
	MOVSD    (i*8)(SI)(AX*8), X4; \
	UNPCKLPD X4, X4; \
	MOVQ     (i*8)(R8)(AX*8), BX; \
	MOVUPD   0(R9)(BX*8), X5; \
	MULPD    X4, X5; \
	ADDPD    X5, X0; \
	MOVUPD   16(R9)(BX*8), X6; \
	MULPD    X4, X6; \
	ADDPD    X6, X1; \
	MOVUPD   32(R9)(BX*8), X7; \
	MULPD    X4, X7; \
	ADDPD    X7, X2; \
	MOVUPD   48(R9)(BX*8), X8; \
	MULPD    X4, X8; \
	ADDPD    X8, X3

TEXT ·mulRow(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), DX
	MOVQ off_base+48(FP), R8
	MOVQ b_base+72(FP), R9
	MOVQ DX, R10
	ANDQ $-2, R10 // the terms that pair up

block8:
	CMPQ CX, $8
	JLT  block2
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	XORQ AX, AX

	// Two terms per pass, one after the other, then an odd last one:
	// each accumulator still takes the terms in list order.
pair8:
	CMPQ AX, R10
	JGE  odd8
	TERM8(0)
	TERM8(1)
	ADDQ $2, AX
	JMP  pair8

odd8:
	CMPQ AX, DX
	JGE  store8
	TERM8(0)

store8:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, R9
	SUBQ   $8, CX
	JMP    block8

block2:
	CMPQ CX, $2
	JLT  block1
	MOVUPD 0(DI), X0
	XORQ   AX, AX

loop2:
	CMPQ AX, DX
	JGE  store2
	MOVSD    (SI)(AX*8), X4
	UNPCKLPD X4, X4
	MOVQ     (R8)(AX*8), BX
	MOVUPD   (R9)(BX*8), X5
	MULPD    X4, X5
	ADDPD    X5, X0
	INCQ     AX
	JMP      loop2

store2:
	MOVUPD X0, 0(DI)
	ADDQ   $16, DI
	ADDQ   $16, R9
	SUBQ   $2, CX
	JMP    block2

block1:
	CMPQ CX, $1
	JLT  done
	MOVSD 0(DI), X0
	XORQ  AX, AX

loop1:
	CMPQ AX, DX
	JGE  store1
	MOVSD (SI)(AX*8), X4
	MOVQ  (R8)(AX*8), BX
	MOVSD (R9)(BX*8), X5
	MULSD X4, X5
	ADDSD X5, X0
	INCQ  AX
	JMP   loop1

store1:
	MOVSD X0, 0(DI)

done:
	RET

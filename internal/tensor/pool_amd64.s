#include "textflag.h"

// SSE pooling epilogue (see pool.go for the operand-order contract). Every
// MAXPS/MAXSS keeps the operand the Go model passes first as destination:
// r0 against r1, the even column against the odd one, the biased sum
// against +0. Within a pooled row, outputs run 4 at a time, then one at a
// time in MAXSS; the outer loop steps to the next pooled row, two sum rows
// down.

// func poolPlane(out, acc []float32, ow, pw, rows int, bias float32)
TEXT ·poolPlane(SB), NOSPLIT, $0-76
	MOVQ   out_base+0(FP), DI
	MOVQ   acc_base+24(FP), SI
	MOVQ   ow+48(FP), CX
	MOVQ   pw+56(FP), R9
	MOVQ   rows+64(FP), R10
	MOVSS  bias+72(FP), X6
	SHUFPS $0x00, X6, X6
	XORPS  X7, X7
	SHLQ   $2, R9         // the sum row stride in bytes
	LEAQ   (SI)(R9*1), R8 // r1, one sum row below r0
	MOVQ   CX, DX
	ANDQ   $-4, DX

row:
	XORQ AX, AX

	// Output j reads columns 2j and 2j+1, at byte offset 8j of each row.
loop4:
	CMPQ   AX, DX
	JAE    tail1
	MOVUPS (SI)(AX*8), X0
	MOVUPS 16(SI)(AX*8), X1
	MOVUPS (R8)(AX*8), X2
	MOVUPS 16(R8)(AX*8), X3
	MAXPS  X2, X0
	MAXPS  X3, X1
	MOVAPS X0, X2
	SHUFPS $0x88, X1, X0 // even columns of the 8
	SHUFPS $0xDD, X1, X2 // odd columns
	MAXPS  X2, X0
	ADDPS  X6, X0
	MAXPS  X7, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    loop4

tail1:
	CMPQ  AX, CX
	JAE   nextrow
	MOVSS (SI)(AX*8), X0
	MOVSS 4(SI)(AX*8), X2
	MOVSS (R8)(AX*8), X1
	MOVSS 4(R8)(AX*8), X3
	MAXSS X1, X0
	MAXSS X3, X2
	MAXSS X2, X0
	ADDSS X6, X0
	MAXSS X7, X0
	MOVSS X0, (DI)(AX*4)
	INCQ  AX
	JMP   tail1

nextrow:
	LEAQ (DI)(CX*4), DI // the next pooled row of out
	LEAQ (SI)(R9*2), SI // two sum rows down
	LEAQ (R8)(R9*2), R8
	DECQ R10
	JNZ  row
	RET

#include "textflag.h"

// SSE multiply-add kernels (see axpy.go for the rounding contract). Each
// product is MULPS with the B value as destination, and each sum is ADDPS
// with the product as destination: the operand order of the MULSS/ADDSS the
// Go compiler emits for `cv += a*b`. Columns run 8 at a time in two
// independent vectors, then one 4-wide step, then scalar MULSS/ADDSS.

// func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
TEXT ·axpy4(SB), NOSPLIT, $0-136
	MOVQ   c_base+0(FP), DI
	MOVQ   c_len+8(FP), CX
	MOVQ   b0_base+24(FP), R8
	MOVQ   b1_base+48(FP), R9
	MOVQ   b2_base+72(FP), R10
	MOVQ   b3_base+96(FP), R11
	MOVSS  a0+120(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  a1+124(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS  a2+128(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS  a3+132(FP), X3
	SHUFPS $0x00, X3, X3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX

loop8:
	CMPQ   AX, DX
	JAE    tail4
	MOVUPS (R8)(AX*4), X4
	MOVUPS 16(R8)(AX*4), X5
	MULPS  X0, X4
	MULPS  X0, X5
	MOVUPS (DI)(AX*4), X6
	MOVUPS 16(DI)(AX*4), X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R9)(AX*4), X6
	MOVUPS 16(R9)(AX*4), X7
	MULPS  X1, X6
	MULPS  X1, X7
	ADDPS  X4, X6
	ADDPS  X5, X7
	MOVUPS (R10)(AX*4), X4
	MOVUPS 16(R10)(AX*4), X5
	MULPS  X2, X4
	MULPS  X2, X5
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R11)(AX*4), X6
	MOVUPS 16(R11)(AX*4), X7
	MULPS  X3, X6
	MULPS  X3, X7
	ADDPS  X4, X6
	ADDPS  X5, X7
	MOVUPS X6, (DI)(AX*4)
	MOVUPS X7, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    loop8

tail4:
	MOVQ   CX, DX
	ANDQ   $-4, DX
	CMPQ   AX, DX
	JAE    tail1
	MOVUPS (R8)(AX*4), X4
	MULPS  X0, X4
	MOVUPS (DI)(AX*4), X6
	ADDPS  X6, X4
	MOVUPS (R9)(AX*4), X6
	MULPS  X1, X6
	ADDPS  X4, X6
	MOVUPS (R10)(AX*4), X4
	MULPS  X2, X4
	ADDPS  X6, X4
	MOVUPS (R11)(AX*4), X6
	MULPS  X3, X6
	ADDPS  X4, X6
	MOVUPS X6, (DI)(AX*4)
	ADDQ   $4, AX

tail1:
	CMPQ   AX, CX
	JAE    done4
	MOVSS  (R8)(AX*4), X4
	MULSS  X0, X4
	MOVSS  (DI)(AX*4), X6
	ADDSS  X6, X4
	MOVSS  (R9)(AX*4), X6
	MULSS  X1, X6
	ADDSS  X4, X6
	MOVSS  (R10)(AX*4), X4
	MULSS  X2, X4
	ADDSS  X6, X4
	MOVSS  (R11)(AX*4), X6
	MULSS  X3, X6
	ADDSS  X4, X6
	MOVSS  X6, (DI)(AX*4)
	INCQ   AX
	JMP    tail1

done4:
	RET

// func axpy(c, b []float32, a float32)
TEXT ·axpy(SB), NOSPLIT, $0-52
	MOVQ   c_base+0(FP), DI
	MOVQ   c_len+8(FP), CX
	MOVQ   b_base+24(FP), SI
	MOVSS  a+48(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX

loop8:
	CMPQ   AX, DX
	JAE    tail4
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI)(AX*4), X3
	MOVUPS 16(DI)(AX*4), X4
	ADDPS  X3, X1
	ADDPS  X4, X2
	MOVUPS X1, (DI)(AX*4)
	MOVUPS X2, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    loop8

tail4:
	MOVQ   CX, DX
	ANDQ   $-4, DX
	CMPQ   AX, DX
	JAE    tail1
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X3
	ADDPS  X3, X1
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX

tail1:
	CMPQ   AX, CX
	JAE    done1
	MOVSS  (SI)(AX*4), X1
	MULSS  X0, X1
	MOVSS  (DI)(AX*4), X3
	ADDSS  X3, X1
	MOVSS  X1, (DI)(AX*4)
	INCQ   AX
	JMP    tail1

done1:
	RET

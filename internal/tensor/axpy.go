package tensor

import "fmt"

// The multiply-add kernels every float32 GEMM loop in this package runs on.
// On amd64 they are SSE assembly (axpy_amd64.s); elsewhere the Go loops below
// serve directly. The Go loops are also the oracle FuzzAxpy holds the
// assembly to, bit for bit.
//
// Rounding contract: every lane computes exactly what the scalar Go
// statement `cv += float32(a*b)` computes — the product rounded to float32,
// then the sum rounded to float32, never a fused multiply-add. The explicit
// conversion is what forbids the fusion (the Go spec lets a compiler fuse
// `cv += a*b`, and arm64's does); on amd64 the statement is MULSS then ADDSS
// with or without it. The assembly uses MULPS then ADDPS in the same operand
// order, so a lane of the vector kernel and an iteration of the scalar loop
// round identically.

// Axpy computes c[j] += a·b[j] for every j < len(c) on the multiply-add
// kernel, each lane rounding exactly like the scalar statement above. It
// panics if b holds fewer than len(c) values.
func Axpy(c, b []float32, a float32) {
	if len(b) < len(c) {
		panic(fmt.Sprintf("tensor: Axpy source has %d values for %d outputs", len(b), len(c)))
	}
	axpy(c, b, a)
}

// axpy4Generic computes c[j] = (((c[j]+a0·b0[j])+a1·b1[j])+a2·b2[j])+a3·b3[j]
// for every j < len(c): a rank-4 update of one C row, with the four products
// added in order. Each b_i must hold at least len(c) values.
func axpy4Generic(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j, cv := range c {
		cv += float32(a0 * b0[j])
		cv += float32(a1 * b1[j])
		cv += float32(a2 * b2[j])
		cv += float32(a3 * b3[j])
		c[j] = cv
	}
}

// axpyGeneric computes c[j] += a·b[j] for every j < len(c). b must hold at
// least len(c) values.
func axpyGeneric(c, b []float32, a float32) {
	b = b[:len(c)]
	for j, bv := range b {
		c[j] += float32(a * bv)
	}
}

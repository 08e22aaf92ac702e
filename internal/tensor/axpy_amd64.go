package tensor

// axpy4 is axpy4Generic in SSE (axpy_amd64.s). SSE2 is the amd64 baseline,
// so there is no CPU feature check. Callers guarantee every b_i holds at
// least len(c) values; the assembly reads exactly len(c) of each.
//
//go:noescape
func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

// axpy is axpyGeneric in SSE. Callers guarantee len(b) >= len(c).
//
//go:noescape
func axpy(c, b []float32, a float32)

package tensor

import "fmt"

// The conv block's epilogue: 2×2 max-pool, bias, ReLU over one pooled row.
// On amd64 it is SSE assembly (pool_amd64.s); elsewhere the Go loop below
// serves directly, and it is also the oracle FuzzPool holds the assembly to.
//
// The Go loop is the lane-exact scalar model of the assembly. Every max is
// MAXPS/MAXSS's rule, maxps(a, b) = a > b ? a : b, which returns its second
// operand when the two are equal (so +0 vs −0 picks b) or either is NaN. The
// ReLU is maxps(v, +0): it maps −0 and NaN to +0, so the output is never −0
// and never NaN. On finite sums the result equals pooling with Go's max, then
// adding the bias and rectifying, because the two maxes differ only on which
// zero of a ±0 tie they keep, and the ReLU turns either into +0.

// PoolBiasReLU computes out[j] = relu(max(r0[2j], r1[2j], r0[2j+1],
// r1[2j+1]) + bias) for every j < len(out): one pooled row of a conv block
// from the two sum rows r0 and r1 beneath it. Each row must hold at least
// 2·len(out) values; a trailing odd column is never read.
func PoolBiasReLU(out, r0, r1 []float32, bias float32) {
	n := 2 * len(out)
	if len(r0) < n || len(r1) < n {
		panic(fmt.Sprintf("tensor: PoolBiasReLU of %d outputs over rows of %d and %d", len(out), len(r0), len(r1)))
	}
	poolRow(out, r0, r1, bias)
}

// maxps is one lane of MAXPS/MAXSS with a as destination and b as source.
func maxps(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// poolRowGeneric is the order the assembly runs in: the vertical max of each
// column pair (r0 as destination), then the even column against the odd one,
// then the bias and the ReLU against +0. Callers guarantee both rows hold
// 2·len(out) values.
func poolRowGeneric(out, r0, r1 []float32, bias float32) {
	r0, r1 = r0[:2*len(out)], r1[:2*len(out)]
	for j := range out {
		even := maxps(r0[2*j], r1[2*j])
		odd := maxps(r0[2*j+1], r1[2*j+1])
		out[j] = maxps(maxps(even, odd)+bias, 0)
	}
}

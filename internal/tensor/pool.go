package tensor

import "fmt"

// The conv block's epilogue: 2×2 max-pool, bias, ReLU over one sample
// plane of a filter's sums. On amd64 it is SSE assembly (pool_amd64.s);
// elsewhere the Go loop below serves directly, and it is also the oracle
// FuzzPool holds the assembly to.
//
// The Go loop is the lane-exact scalar model of the assembly. Every max is
// MAXPS/MAXSS's rule, maxps(a, b) = a > b ? a : b, which returns its second
// operand when the two are equal (so +0 vs −0 picks b) or either is NaN. The
// ReLU is maxps(v, +0): it maps −0 and NaN to +0, so the output is never −0
// and never NaN. On finite sums the result equals pooling with Go's max, then
// adding the bias and rectifying, because the two maxes differ only on which
// zero of a ±0 tie they keep, and the ReLU turns either into +0.

// PoolBiasReLU pools rows pooled rows of ow outputs each from the sums in
// acc, laid out in rows of stride pw: out[y·ow+j] = relu(max(r0[2j], r1[2j],
// r0[2j+1], r1[2j+1]) + bias) with r0 = acc[2y·pw:] and r1 = acc[(2y+1)·pw:],
// the two sum rows beneath pooled row y. Columns past 2·ow of a sum row are
// never read. It panics if out holds fewer than rows·ow values, if pw <
// 2·ow, or if acc holds fewer than (2·rows−1)·pw + 2·ow.
func PoolBiasReLU(out, acc []float32, ow, pw, rows int, bias float32) {
	if ow < 0 || rows < 0 || len(out) < rows*ow {
		panic(fmt.Sprintf("tensor: PoolBiasReLU of %d rows of %d outputs into %d values", rows, ow, len(out)))
	}
	if pw < 2*ow {
		panic(fmt.Sprintf("tensor: PoolBiasReLU row stride %d under the %d sums %d outputs read", pw, 2*ow, ow))
	}
	if rows > 0 && len(acc) < (2*rows-1)*pw+2*ow {
		panic(fmt.Sprintf("tensor: PoolBiasReLU of %d rows at stride %d over %d sums", rows, pw, len(acc)))
	}
	if rows == 0 || ow == 0 {
		return
	}
	poolPlane(out, acc, ow, pw, rows, bias)
}

// maxps is one lane of MAXPS/MAXSS with a as destination and b as source.
func maxps(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// poolPlaneGeneric is the order the assembly runs in, one pooled row after
// another: the vertical max of each column pair (r0 as destination), then
// the even column against the odd one, then the bias and the ReLU against
// +0. Callers guarantee the bounds PoolBiasReLU checks, with rows and ow
// positive.
func poolPlaneGeneric(out, acc []float32, ow, pw, rows int, bias float32) {
	for y := 0; y < rows; y++ {
		r0 := acc[2*y*pw : 2*y*pw+2*ow]
		r1 := acc[(2*y+1)*pw : (2*y+1)*pw+2*ow]
		o := out[y*ow : (y+1)*ow]
		for j := range o {
			even := maxps(r0[2*j], r1[2*j])
			odd := maxps(r0[2*j+1], r1[2*j+1])
			o[j] = maxps(maxps(even, odd)+bias, 0)
		}
	}
}

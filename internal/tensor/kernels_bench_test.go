package tensor

// Kernel micro-benchmarks for the GEMM family at the shapes the model zoo
// builds. A is the [OutC, InC·K²] conv weight matrix (or a dense layer's
// [Out, In]); B is the single-sample im2col column matrix, whose width
// scales with the batch size. The batched conv block itself is benchmarked
// in internal/nn (BenchmarkConvBlock).
//
//	go test -run=NONE -bench=MatMul -benchmem ./internal/tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGemmShapes() [][3]int {
	// [m, k, n(B=1)]: the conv of c1w4 at 16×16 gray and at 8×8 RGB, the two
	// convs of the deep c2w8d16 at 32×32 RGB, and that model's first dense
	// layer over its flattened 8×8×8 activation.
	return [][3]int{
		{4, 9, 256},
		{4, 27, 64},
		{8, 27, 1024},
		{8, 72, 256},
		{16, 512, 1},
	}
}

// BenchmarkMatMul compares the training path's i,k,j MatMul against the
// blocked register-tiled Gemm at the zoo's shapes, at single-sample and
// batched column widths.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range benchGemmShapes() {
		for _, batch := range []int{1, 64} {
			m, k, n := sh[0], sh[1], sh[2]*batch
			a := randTensor(rng, m, k)
			bm := randTensor(rng, k, n)
			c := New(m, n)
			flops := 2 * int64(m) * int64(k) * int64(n)
			b.Run(fmt.Sprintf("naive/m=%d/k=%d/n=%d", m, k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMul(c, a, bm)
				}
				b.SetBytes(flops)
			})
			b.Run(fmt.Sprintf("blocked/m=%d/k=%d/n=%d", m, k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Gemm(c, a, bm)
				}
				b.SetBytes(flops)
			})
		}
	}
}

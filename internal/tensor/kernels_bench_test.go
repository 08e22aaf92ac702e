package tensor

// Kernel micro-benchmarks for the GEMM family at the shapes the model zoo
// builds. A is an [OutC, InC·K²] conv-shaped matrix (or a dense layer's
// [Out, In]); B's width is a single sample's output positions (or one
// column for the dense layer), scaled by the batch size. The conv block
// itself is benchmarked in internal/nn (BenchmarkConvBlock).
//
//	go test -run=NONE -bench=BenchmarkGemm -benchmem ./internal/tensor

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

// BenchmarkGemm times the blocked register-tiled Gemm at the zoo's shapes,
// at single-sample and batched column widths.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range benchGemmShapes() {
		for _, batch := range []int{1, 64} {
			m, k, n := sh[0], sh[1], sh[2]*batch
			a := randTensor(rng, m, k)
			bm := randTensor(rng, k, n)
			c := New(m, n)
			flops := 2 * int64(m) * int64(k) * int64(n)
			b.Run(fmt.Sprintf("m=%d/k=%d/n=%d", m, k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Gemm(c, a, bm)
				}
				b.SetBytes(flops)
			})
		}
	}
}

package nn

// BenchmarkConvBlock measures one Conv2D → ReLU → MaxPool2 block at the
// shapes the model zoo builds: the fused batched pass (an implicit-GEMM
// convolution with a pooling epilogue, one chunk of 16 frames) against the
// three layers' single-sample Forward (im2col, MatMul, bias, ReLU, pool).
//
//	go test -run=NONE -bench=BenchmarkConvBlock -benchmem ./internal/nn

import (
	"fmt"
	"math/rand"
	"testing"

	"tahoma/internal/tensor"
)

func BenchmarkConvBlock(b *testing.B) {
	shapes := []struct {
		name            string
		inC, outC, size int
	}{
		{"c1w4@16x16-gray", 1, 4, 16},
		{"c1w4@8x8-rgb", 3, 4, 8},
		{"c2w8@32x32-rgb/block1", 3, 8, 32},
		{"c2w8@32x32-rgb/block2", 8, 8, 16},
	}
	const bsz = 16
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(41))
		conv, relu, pool := NewConv2D(sh.inC, sh.outC, 3), NewReLU(), NewMaxPool2()
		conv.Init(rng)
		x := tensor.New(sh.inC, bsz, sh.size, sh.size)
		for i := range x.Data {
			x.Data[i] = rng.Float32()
		}
		block := &convBlock{conv: conv}
		b.Run(fmt.Sprintf("%s/fused/b=%d", sh.name, bsz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				block.forwardBatch(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsz), "ns/frame")
		})
		one := tensor.NewFrom(x.Data[:sh.inC*sh.size*sh.size], sh.inC, sh.size, sh.size)
		b.Run(sh.name+"/single", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.Forward(relu.Forward(conv.Forward(one)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
		})
	}
}

package nn

// BenchmarkConvBlock measures one conv → ReLU → 2×2 max-pool block (an
// implicit-GEMM convolution with a pooling epilogue) at the shapes the model
// zoo builds: over one chunk of frames, as many as NewNetwork's chunk for
// the network the block sits in (the b= in the name), as batched scoring
// runs it, and over one frame, as training and single-frame scoring run it.
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
		name          string
		c, size       int      // the network's input
		blocks        [][2]int // its conv blocks
		block, inSize int      // the block measured and its input size
	}{
		{"c1w4@16x16-gray", 1, 16, [][2]int{{4, 3}}, 0, 16},
		{"c1w4@8x8-rgb", 3, 8, [][2]int{{4, 3}}, 0, 8},
		{"c2w8@32x32-rgb/block1", 3, 32, [][2]int{{8, 3}, {8, 3}}, 0, 32},
		{"c2w8@32x32-rgb/block2", 3, 32, [][2]int{{8, 3}, {8, 3}}, 1, 16},
	}
	for _, sh := range shapes {
		net, err := NewNetwork(sh.c, sh.size, sh.size, sh.blocks, 8)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		net.Init(rng)
		block, bsz := net.blocks[sh.block], net.chunk
		inC := block.conv.InC
		x := tensor.New(inC, bsz, sh.inSize, sh.inSize)
		for i := range x.Data {
			x.Data[i] = rng.Float32()
		}
		b.Run(fmt.Sprintf("%s/fused/b=%d", sh.name, bsz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				block.run(x.Data, nil, bsz, sh.inSize, sh.inSize, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsz), "ns/frame")
		})
		one := x.Data[:inC*sh.inSize*sh.inSize]
		b.Run(sh.name+"/single", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				block.run(one, nil, 1, sh.inSize, sh.inSize, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
		})
	}
}

// BenchmarkAblationConv{ImplicitGEMM,Direct}: the convolution strategy of
// one conv block, 16 3×3 filters over one 8×32×32 frame, in ns/op.
// ImplicitGEMM is the block every network runs, as ForwardBatch runs it on
// a batch of one (convBlock.run without keeping the sums): it pads the
// frame, sums each filter's taps over shifted views of the padded input
// (tensor.ConvTaps on the multiply-add kernel), then pools each 2×2 window
// of the sums, adds the bias and rectifies (tensor.PoolBiasReLU). Direct
// computes the same activations layer by layer: tensor.ConvDirect, one
// scalar dot product per conv output plus the bias, then the ReLU and the
// 2×2 max-pool as separate passes (refReLU, refPool). Identical products,
// different data movement.
//
//	go test -run=NONE -bench=BenchmarkAblationConv ./internal/nn
func convAblationBlock(b *testing.B) (block *convBlock, x *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(8))
	block = &convBlock{conv: newConv2D(8, 16, 3)}
	block.conv.Init(rng)
	for f := range block.conv.B.Value.Data {
		block.conv.B.Value.Data[f] = rng.Float32() - 0.5
	}
	return block, randInput(rng, 8, 32, 32)
}

func BenchmarkAblationConvImplicitGEMM(b *testing.B) {
	block, x := convAblationBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block.run(x.Data, nil, 1, 32, 32, false)
	}
}

func BenchmarkAblationConvDirect(b *testing.B) {
	block, x := convAblationBlock(b)
	c := block.conv
	g := c.geom(32, 32)
	conv := tensor.New(c.OutC, 32, 32)
	relu, pool := &refReLU{}, &refPool{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ConvDirect(conv, x, c.W.Value, c.B.Value, g)
		pool.forward(relu.forward(conv))
	}
}

// BenchmarkTrainStep times one training step of one sample — Forward, the
// loss gradient and Backward — through three networks shaped as arch.Build
// builds them on 32×32 RGB: the bench zoo's deep model and two grid models,
// in ns/step. Backward stops at the first block, as in training.
//
//	go test -run=NONE -bench=BenchmarkTrainStep ./internal/nn
func BenchmarkTrainStep(b *testing.B) {
	for _, m := range []struct {
		name                string
		conv, width, denseW int
	}{
		{"c2w8d16k3@32x32/rgb", 2, 8, 16},
		{"c1w4d8k3@32x32/rgb", 1, 4, 8},
		{"c0w0d8k3@32x32/rgb", 0, 0, 8},
	} {
		net := batchTestNet(b, 43, m.conv, m.width, m.denseW, 3, 32)
		rng := rand.New(rand.NewSource(44))
		samples := make([]*tensor.Tensor, 16)
		for i := range samples {
			samples[i] = randInput(rng, 3, 32, 32)
		}
		net.ZeroGrad()
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, dz := BCELossWithLogits(net.Forward(samples[i%len(samples)]), float32(i%2))
				net.Backward(dz)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
		})
	}
}

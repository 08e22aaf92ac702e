package model

// BenchmarkScoreBatch measures the batched inference path against the
// per-frame path on representative cells of the default design-space grid.
// The b=1 sub-benchmark runs Score — the per-frame path the execution
// engine's inner loop used before level-major batching, and still the
// reference oracle the parity tests compare against — so b=64 vs b=1 is the
// before/after of this optimization: one wide GEMM per layer per batch
// versus per-frame kernels that re-stream the weight matrices for every
// frame (the Dense layer degenerates to a latency-bound dot product at
// batch size one). The four served cells are the levels of the cascades
// the scenario benchmark's scans run (fence: c1w4d8 then c0w0d8 at 16×16
// gray; wallet: c1w4d8 at 8×8 RGB then 8×8 gray), at the engine's batch
// only.
//
//	go test -run=NONE -bench=BenchmarkScoreBatch -benchmem ./internal/model

import (
	"fmt"
	"math/rand"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

func BenchmarkScoreBatch(b *testing.B) {
	cells := []struct {
		name   string
		spec   arch.Spec
		xf     xform.Transform
		served bool
	}{
		{"c1w4d16@32x32-gray", arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 16, Kernel: 3}, xform.Transform{Size: 32, Color: img.Gray}, false},
		{"c2w8d16@32x32-rgb", arch.Spec{ConvLayers: 2, ConvWidth: 8, DenseWidth: 16, Kernel: 3}, xform.Transform{Size: 32, Color: img.RGB}, false},
		{"c1w4d8@16x16-gray", arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3}, xform.Transform{Size: 16, Color: img.Gray}, true},
		{"c0w0d8@16x16-gray", arch.Spec{ConvLayers: 0, ConvWidth: 0, DenseWidth: 8, Kernel: 3}, xform.Transform{Size: 16, Color: img.Gray}, true},
		{"c1w4d8@8x8-rgb", arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3}, xform.Transform{Size: 8, Color: img.RGB}, true},
		{"c1w4d8@8x8-gray", arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3}, xform.Transform{Size: 8, Color: img.Gray}, true},
	}
	for _, cell := range cells {
		m, err := New(cell.spec, cell.xf, Basic, 31)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(32))
		reps := make([]*img.Image, 64)
		for i := range reps {
			reps[i] = randRep(rng, cell.xf.Size, cell.xf.Color)
		}
		batches := []int{64}
		if !cell.served {
			batches = []int{1, 8, 64}
			b.Run(cell.name+"/b=1", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := m.Score(reps[i%len(reps)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/sec")
			})
		}
		for _, bsz := range batches {
			out := make([]float32, bsz)
			b.Run(fmt.Sprintf("%s/batched/b=%d", cell.name, bsz), func(b *testing.B) {
				// Rotate through the rep set so every batch size pays the
				// same cold-input traffic the engine sees on real frames.
				for i := 0; i < b.N; i++ {
					lo := (i * bsz) % len(reps)
					if err := m.ScoreBatchInto(reps[lo:lo+bsz], out); err != nil {
						b.Fatal(err)
					}
				}
				frames := float64(b.N * bsz)
				b.ReportMetric(frames/b.Elapsed().Seconds(), "frames/sec")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
			})
		}
	}
}

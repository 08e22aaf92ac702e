package tahoma

// BenchmarkExecEngine measures the execution engine over N ∈ {1, 2, 3}
// cascades on a synthetic corpus: the per-frame reference walk against the
// batched loop, worker scaling, and — for N > 1 — one engine over all
// cascades against one engine run per cascade, on shared and disjoint
// representation grids. Every configuration returns bit-identical labels, so
// the comparison is pure throughput; run with -benchmem to see that the
// batched steady state allocates ~nothing per frame.
//
//	go test -run=NONE -bench=BenchmarkExecEngine -benchtime=1x -benchmem .

import (
	"fmt"
	"math/rand"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

// benchCascades builds n cascades of depth 2: shared grids draw every
// cascade's representations from the same gray ladder, disjoint grids give
// each cascade its own color channel.
func benchCascades(b *testing.B, n int, shared bool) [][]exec.Level {
	b.Helper()
	colors := []img.ColorMode{img.Red, img.Green, img.Blue}
	spec := arch.Spec{ConvLayers: 1, ConvWidth: 2, DenseWidth: 2, Kernel: 3}
	cascades := make([][]exec.Level, n)
	for p := 0; p < n; p++ {
		color := img.Gray
		if !shared {
			color = colors[p%len(colors)]
		}
		xfs := []xform.Transform{{Size: 8, Color: color}, {Size: 16, Color: color}}
		levels := make([]exec.Level, len(xfs))
		for i, t := range xfs {
			m, err := model.New(spec, t, model.Basic, int64(60+100*p+i))
			if err != nil {
				b.Fatal(err)
			}
			levels[i] = exec.Level{
				Model: m,
				// Wide uncertain bands: most frames descend both levels, so
				// the benchmark exercises representation sharing across
				// levels and cascades, not just level 1.
				Thresholds: thresh.Thresholds{Low: 0.4, High: 0.6},
				Last:       i == len(xfs)-1,
			}
		}
		cascades[p] = levels
	}
	return cascades
}

func BenchmarkExecEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	frames := make([]*img.Image, 256)
	for i := range frames {
		im := img.New(64, 64, img.RGB)
		for p := range im.Pix {
			im.Pix[p] = rng.Float32()
		}
		frames[i] = im
	}
	src := exec.Frames(frames)
	newEngine := func(b *testing.B, cascades ...[]exec.Level) *exec.Engine {
		b.Helper()
		eng, err := exec.New(cascades...)
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	// bench times one pass of run over the corpus per iteration.
	bench := func(b *testing.B, name string, run func() error) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(frames))/b.Elapsed().Seconds(), "frames/sec")
		})
	}

	// One cascade: the per-frame walk isolates the gain of the batched inner
	// loop (one ScoreBatch per level over pooled representation buffers);
	// the worker counts isolate parallelism.
	solo := newEngine(b, benchCascades(b, 1, true)...)
	bench(b, "n=1/per-frame", func() error {
		for _, f := range frames {
			if _, _, err := solo.ClassifyOne(0, f); err != nil {
				return err
			}
		}
		return nil
	})
	for _, workers := range []int{1, 2, 4, 8} {
		opts := exec.Options{Workers: workers, Batch: 32}
		bench(b, fmt.Sprintf("n=1/workers=%d", workers), func() error {
			_, err := solo.Run(src, nil, opts)
			return err
		})
	}

	// Several cascades: with shared grids one engine materializes each
	// (frame, slot) once for the whole set; one run per cascade pays it once
	// per cascade.
	opts := exec.Options{Workers: 1, Batch: 64}
	for _, cfg := range []struct {
		n      int
		shared bool
		grid   string
	}{
		{2, true, "shared"},
		{3, true, "shared"},
		{2, false, "disjoint"},
		{3, false, "disjoint"},
	} {
		cascades := benchCascades(b, cfg.n, cfg.shared)
		each := make([]*exec.Engine, len(cascades))
		for p, levels := range cascades {
			each[p] = newEngine(b, levels)
		}
		bench(b, fmt.Sprintf("n=%d/%s/run-per-cascade", cfg.n, cfg.grid), func() error {
			for _, eng := range each {
				if _, err := eng.Run(src, nil, opts); err != nil {
					return err
				}
			}
			return nil
		})
		all := newEngine(b, cascades...)
		bench(b, fmt.Sprintf("n=%d/%s/one-engine", cfg.n, cfg.grid), func() error {
			_, err := all.Run(src, nil, opts)
			return err
		})
	}
}

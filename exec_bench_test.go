package tahoma

// BenchmarkExecEngine measures the execution engine over one depth-2 cascade
// on a synthetic corpus: the per-frame reference walk against the batched
// loop, and worker scaling. Every configuration returns bit-identical
// labels, so the comparison is pure throughput; run with -benchmem to see
// that the batched steady state allocates ~nothing per frame.
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

// benchLevels builds a depth-2 cascade over a gray ladder.
func benchLevels(b *testing.B) []exec.Level {
	b.Helper()
	spec := arch.Spec{ConvLayers: 1, ConvWidth: 2, DenseWidth: 2, Kernel: 3}
	xfs := []xform.Transform{{Size: 8, Color: img.Gray}, {Size: 16, Color: img.Gray}}
	levels := make([]exec.Level, len(xfs))
	for i, t := range xfs {
		m, err := model.New(spec, t, model.Basic, int64(60+i))
		if err != nil {
			b.Fatal(err)
		}
		levels[i] = exec.Level{
			Model: m,
			// A wide uncertain band: most frames descend both levels, so the
			// benchmark exercises the second level, not just the first.
			Thresholds: thresh.Thresholds{Low: 0.4, High: 0.6},
			Last:       i == len(xfs)-1,
		}
	}
	return levels
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
	eng, err := exec.New(benchLevels(b))
	if err != nil {
		b.Fatal(err)
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

	// The per-frame walk isolates the gain of the batched inner loop (one
	// ScoreBatch per level over pooled representation buffers); the worker
	// counts isolate parallelism.
	bench(b, "per-frame", func() error {
		for _, f := range frames {
			if _, _, err := eng.ClassifyOne(f); err != nil {
				return err
			}
		}
		return nil
	})
	for _, workers := range []int{1, 2, 4, 8} {
		opts := exec.Options{Workers: workers, Batch: 32}
		bench(b, fmt.Sprintf("workers=%d", workers), func() error {
			_, err := eng.Run(src, nil, opts)
			return err
		})
	}
}

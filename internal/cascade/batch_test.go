package cascade

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/thresh"
)

// batchFixtureRuntime builds a 3-level runtime whose thresholds leave a
// wide uncertain band, so cascades actually descend levels.
func batchFixtureRuntime(t *testing.T, seed int64) *Runtime {
	t.Helper()
	f := newFixture(t, seed, 4, 2, 8)
	for m := range f.ths {
		f.ths[m][0] = thresh.Thresholds{Low: 0.45, High: 0.55}
		f.ths[m][1] = thresh.Thresholds{Low: 0.3, High: 0.7}
	}
	spec := Spec{Depth: 3, L: [MaxLevels]LevelRef{
		{Model: 0, Thresh: 0}, {Model: 1, Thresh: 1}, {Model: 2, Thresh: Final}}}
	rt, err := NewRuntime(spec, f.models, f.ths)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestClassifyBatchParity: for all worker counts 1..N and a spread of batch
// sizes, ClassifyBatchContext returns bit-identical labels and identical
// RepsCreated / LevelsRun accounting to per-image Runtime.Classify on the
// same corpus.
func TestClassifyBatchParity(t *testing.T) {
	rt := batchFixtureRuntime(t, 91)
	rng := rand.New(rand.NewSource(92))
	srcs := make([]*img.Image, 37)
	for i := range srcs {
		srcs[i] = randSource(rng, 32)
	}

	wantLabels := make([]bool, len(srcs))
	wantReps, wantLevels := 0, 0
	for i, src := range srcs {
		label, tr, err := rt.Classify(src)
		if err != nil {
			t.Fatal(err)
		}
		wantLabels[i] = label
		wantReps += len(tr.RepsCreated)
		wantLevels += tr.LevelsRun
	}

	for workers := 1; workers <= 4; workers++ {
		for _, batch := range []int{1, 2, 5, 16, 37, 100} {
			t.Run(fmt.Sprintf("w=%d/b=%d", workers, batch), func(t *testing.T) {
				rep, err := rt.ClassifyBatchContext(context.Background(), srcs, exec.Options{Workers: workers, Batch: batch})
				if err != nil {
					t.Fatal(err)
				}
				for i := range srcs {
					if rep.Labels[0][i] != wantLabels[i] {
						t.Fatalf("image %d: batch label %v != sequential %v", i, rep.Labels[0][i], wantLabels[i])
					}
				}
				if rep.RepsMaterialized != wantReps {
					t.Fatalf("batch created %d reps, sequential created %d", rep.RepsMaterialized, wantReps)
				}
				if rep.LevelsRun[0] != wantLevels {
					t.Fatalf("batch ran %d levels, sequential ran %d", rep.LevelsRun[0], wantLevels)
				}
			})
		}
	}
}

// TestEmptyRuntimeRejected: a manually-assembled runtime with no levels has
// no engine, and every batch entry point says so instead of panicking.
func TestEmptyRuntimeRejected(t *testing.T) {
	if _, err := (&Runtime{}).ClassifyBatchContext(context.Background(), nil, exec.Options{}); err == nil {
		t.Fatal("classifying through an empty runtime must error")
	}
	if _, err := NewEngine(batchFixtureRuntime(t, 95), &Runtime{}); err == nil {
		t.Fatal("an engine over an empty member runtime must error")
	}
}

package train

import (
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
)

func smallSplits(t *testing.T) synth.Splits {
	t.Helper()
	cat, err := synth.CategoryByName("cloak")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 40, ConfigN: 16, EvalN: 16, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func newModel(t *testing.T, size int, color img.ColorMode, seed int64) *model.Model {
	t.Helper()
	m, err := model.New(
		arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3},
		xform.Transform{Size: size, Color: color},
		model.Basic, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelLearnsAboveChance(t *testing.T) {
	sp := smallSplits(t)
	m := newModel(t, 16, img.RGB, 1)
	rep, err := Model(m, sp.Train, Options{Epochs: 6, BatchSize: 8, LR: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrainAccuracy < 0.7 {
		t.Fatalf("training accuracy %.3f; model failed to learn an easy shape task", rep.TrainAccuracy)
	}
	if rep.Epochs != 6 || rep.ModelID != m.ID() {
		t.Fatalf("report fields wrong: %+v", rep)
	}
}

func TestModelEmptyDataset(t *testing.T) {
	m := newModel(t, 8, img.Gray, 2)
	if _, err := Model(m, synth.Dataset{}, Options{}); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestAllTrainsEveryModelDeterministically(t *testing.T) {
	sp := smallSplits(t)
	build := func() []*model.Model {
		return []*model.Model{
			newModel(t, 8, img.Gray, 1),
			newModel(t, 8, img.RGB, 1),
			newModel(t, 16, img.Gray, 1),
		}
	}
	// The last job trains longest, so the pool dispatches it first; reports
	// still come back in job order.
	jobsOf := func(models []*model.Model) []Job {
		jobs := make([]Job, len(models))
		for i, m := range models {
			jobs[i] = Job{Model: m, Opts: Options{Epochs: 2, BatchSize: 8, LR: 0.01, Seed: 7 + int64(i)}}
		}
		jobs[len(jobs)-1].Opts.Epochs = 4
		return jobs
	}
	a := build()
	if _, err := All(jobsOf(a), sp.Train, 1); err != nil {
		t.Fatal(err)
	}
	b := build()
	reports, err := All(jobsOf(b), sp.Train, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		want := 2
		if i == len(b)-1 {
			want = 4
		}
		if r.ModelID != b[i].ID() || r.Epochs != want {
			t.Fatalf("report %d is %+v, want model %s after %d epochs", i, r, b[i].ID(), want)
		}
	}
	// Parallel training must give bit-identical weights to serial training.
	for i := range a {
		wa, wb := a[i].Net.Weights(), b[i].Net.Weights()
		for j := range wa {
			if wa[j] != wb[j] {
				t.Fatalf("model %d weight %d differs between 1 and 3 workers", i, j)
			}
		}
	}
}

func TestAllEmptyDataset(t *testing.T) {
	if _, err := All(nil, synth.Dataset{}, 0); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestScoresAndLabels(t *testing.T) {
	sp := smallSplits(t)
	m := newModel(t, 8, img.Gray, 4)
	scores := Scores(m, sp.Eval)
	if len(scores) != sp.Eval.Len() {
		t.Fatalf("got %d scores", len(scores))
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of [0,1]", s)
		}
	}
	labels := Labels(sp.Eval)
	if len(labels) != sp.Eval.Len() {
		t.Fatal("labels length wrong")
	}
	pos := 0
	for _, l := range labels {
		if l {
			pos++
		}
	}
	if pos != sp.Eval.Positives() {
		t.Fatal("labels disagree with dataset positives")
	}
}

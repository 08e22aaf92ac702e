package train

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/nn"
	"tahoma/internal/synth"
	"tahoma/internal/tensor"
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
	// Scores runs the batched kernels; it must give ScoreFull's bits, over
	// 37 examples: two full 16-sample chunks and a ragged tail.
	ds := zooSplits(t, 37).Train
	c0, err := model.New(arch.Spec{ConvLayers: 0, DenseWidth: 8, Kernel: 3},
		xform.Transform{Size: 16, Color: img.RGB}, model.Basic, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*model.Model{newModel(t, 16, img.RGB, 4), c0} {
		got := Scores(m, ds)
		for i, e := range ds.Examples {
			if want := m.ScoreFull(e.Image); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("%s example %d: Scores %v, ScoreFull %v", m.ID(), i, got[i], want)
			}
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

// zooSplits is the scenario benchmark zoo's corpus (fence at 32×32, seed 7)
// with trainN training examples.
func zooSplits(tb testing.TB, trainN int) synth.Splits {
	tb.Helper()
	cat, err := synth.CategoryByName("fence")
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := synth.GenerateBinary(cat, synth.Options{BaseSize: 32, TrainN: trainN, ConfigN: 8, EvalN: 8, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// zooSpace returns constructors for every model of the scenario benchmark
// zoo's design space: the c0/c1 grid over sizes 8/16/32 in RGB and gray, and
// the c2 deep model on 32×32 RGB. Each call of a constructor builds the
// model afresh with the same initial weights.
func zooSpace() []func() (*model.Model, error) {
	var out []func() (*model.Model, error)
	deep := arch.Spec{ConvLayers: 2, ConvWidth: 8, DenseWidth: 16, Kernel: 3}
	out = append(out, func() (*model.Model, error) {
		return model.New(deep, xform.Transform{Size: 32, Color: img.RGB}, model.Deep, 1)
	})
	for _, tr := range xform.Grid([]int{8, 16, 32}, []img.ColorMode{img.RGB, img.Gray}) {
		for _, spec := range arch.Grid([]int{0, 1}, []int{4}, []int{8}, 3) {
			if tr.Size < spec.MinInputSize() {
				continue
			}
			out = append(out, func() (*model.Model, error) { return model.New(spec, tr, model.Basic, 1) })
		}
	}
	return out
}

// refFit is the serial per-sample fitting loop fit replaced, kept as its
// oracle: every sample runs forward and backward on the model's own network
// and accumulates straight into its gradients.
func refFit(m *model.Model, samples []sample, opts Options) Report {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	opt := nn.NewAdam(opts.LR)
	params := m.Net.Params()
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		m.Net.ZeroGrad()
		inBatch := 0
		for _, idx := range order {
			s := samples[idx]
			z := m.Net.Forward(s.x)
			loss, dz := nn.BCELossWithLogits(z, s.label)
			epochLoss += float64(loss)
			m.Net.Backward(dz / float32(opts.BatchSize))
			inBatch++
			if inBatch == opts.BatchSize {
				opt.Step(params)
				m.Net.ZeroGrad()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(params)
			m.Net.ZeroGrad()
		}
		lastLoss = epochLoss / float64(len(samples))
	}
	correct := 0
	for _, s := range samples {
		p := tensor.Sigmoid(m.Net.Forward(s.x))
		if (p >= 0.5) == (s.label >= 0.5) {
			correct++
		}
	}
	return Report{
		ModelID:       m.ID(),
		Epochs:        opts.Epochs,
		FinalLoss:     lastLoss,
		TrainAccuracy: float64(correct) / float64(len(samples)),
	}
}

// TestFitMatchesSerialOracle holds fit's data-parallel minibatches to the
// serial loop bit for bit, for every model of the benchmark zoo, at several
// worker counts and batch sizes. 83 training examples leave a trailing
// 3-sample minibatch at BatchSize 8.
func TestFitMatchesSerialOracle(t *testing.T) {
	ds := zooSplits(t, 83).Train
	for _, build := range zooSpace() {
		for _, bs := range []int{8, 1} {
			opts := Options{Epochs: 2, BatchSize: bs, LR: 0.01, Seed: 5}
			ref, err := build()
			if err != nil {
				t.Fatal(err)
			}
			want := refFit(ref, materialize(ref, ds), opts)
			wantW := ref.Net.Weights()
			for _, workers := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("%s batch=%d workers=%d", ref.ID(), bs, workers)
				m, err := build()
				if err != nil {
					t.Fatal(err)
				}
				got, err := fit(m, materialize(m, ds), opts, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: report %+v, serial loop %+v", name, got, want)
				}
				for i, w := range m.Net.Weights() {
					if math.Float32bits(w) != math.Float32bits(wantW[i]) {
						t.Fatalf("%s: weight %d = %v, serial loop %v", name, i, w, wantW[i])
					}
				}
			}
		}
	}
}

// BenchmarkFit times the benchmark zoo's deep model alone (6 epochs over 80
// examples at BatchSize 8) on one worker and on GOMAXPROCS workers, in ms
// per fit.
//
//	go test -run=NONE -bench=BenchmarkFit ./internal/train
func BenchmarkFit(b *testing.B) {
	sp := zooSplits(b, 80)
	m, err := zooSpace()[0]()
	if err != nil {
		b.Fatal(err)
	}
	w0 := m.Net.Weights()
	samples := materialize(m, sp.Train)
	opts := Options{Epochs: 6, BatchSize: 8, LR: 0.01}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for b.Loop() {
				if err := m.Net.SetWeights(w0); err != nil {
					b.Fatal(err)
				}
				if _, err := fit(m, samples, opts, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/fit")
		})
	}
}

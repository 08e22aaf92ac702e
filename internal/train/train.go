// Package train fits TAHOMA's basic models to a labeled training split. The
// grid of models is embarrassingly parallel, so All trains models across a
// worker pool; representations are materialized once per distinct transform
// and shared read-only between the models that consume them, mirroring how
// the paper amortizes preprocessing during system initialization.
package train

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"tahoma/internal/model"
	"tahoma/internal/nn"
	"tahoma/internal/synth"
	"tahoma/internal/tensor"
)

// Options controls the fitting loop.
type Options struct {
	Epochs    int     // full passes over the training split (default 4)
	BatchSize int     // gradient accumulation size (default 16)
	LR        float64 // Adam learning rate (default 0.004)
	Seed      int64   // shuffle seed
}

func (o *Options) setDefaults() {
	if o.Epochs == 0 {
		o.Epochs = 4
	}
	if o.BatchSize == 0 {
		o.BatchSize = 16
	}
	if o.LR == 0 {
		o.LR = 0.004
	}
}

// Report summarizes one model's training run.
type Report struct {
	ModelID       string
	Epochs        int
	FinalLoss     float64 // mean BCE over the last epoch
	TrainAccuracy float64 // 0.5-cutoff accuracy on the training split
}

// sample is a pre-transformed training example.
type sample struct {
	x     *tensor.Tensor
	label float32
}

func materialize(m *model.Model, ds synth.Dataset) []sample {
	out := make([]sample, len(ds.Examples))
	for i, e := range ds.Examples {
		rep := m.Xform.Apply(e.Image)
		var y float32
		if e.Label {
			y = 1
		}
		out[i] = sample{x: model.InputTensor(rep), label: y}
	}
	return out
}

// Model trains a single model in place and returns a report.
func Model(m *model.Model, ds synth.Dataset, opts Options) (Report, error) {
	opts.setDefaults()
	if ds.Len() == 0 {
		return Report{}, fmt.Errorf("train: empty training set for %s", m.ID())
	}
	return fit(m, materialize(m, ds), opts)
}

func fit(m *model.Model, samples []sample, opts Options) (Report, error) {
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
	}, nil
}

// Job is one model to fit and the options, seed included, it is fitted with.
type Job struct {
	Model *model.Model
	Opts  Options
}

// All trains every job over a pool of workers and returns one report per
// job, in job order. Jobs sharing a transform share materialized
// representations. The pool takes the jobs longest first (by Epochs × MACs),
// so the most expensive model starts at once instead of running alone after
// the cheap ones finish. Each fit depends only on its job, so the weights do
// not depend on workers or on the order. workers <= 0 uses GOMAXPROCS.
func All(jobs []Job, ds synth.Dataset, workers int) ([]Report, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("train: empty training set")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Materialize each distinct representation once.
	repCache := make(map[string][]sample)
	for _, j := range jobs {
		id := j.Model.Xform.ID()
		if _, ok := repCache[id]; !ok {
			repCache[id] = materialize(j.Model, ds)
		}
	}

	// A job's cost is its epochs times its per-sample multiply-adds.
	order := make([]int, len(jobs))
	cost := make([]int64, len(jobs))
	for i, j := range jobs {
		o := j.Opts
		o.setDefaults()
		order[i], cost[i] = i, int64(o.Epochs)*j.Model.MACs()
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })

	reports := make([]Report, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				reports[i], errs[i] = fit(j.Model, repCache[j.Model.Xform.ID()], j.Opts)
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return reports, fmt.Errorf("train: model %s: %w", jobs[i].Model.ID(), err)
		}
	}
	return reports, nil
}

// Scores runs a trained model over a dataset and returns its probability
// outputs, materializing the model's representation for each example.
func Scores(m *model.Model, ds synth.Dataset) []float32 {
	out := make([]float32, ds.Len())
	for i, e := range ds.Examples {
		out[i] = m.ScoreFull(e.Image)
	}
	return out
}

// Labels extracts the boolean ground truth of a dataset.
func Labels(ds synth.Dataset) []bool {
	out := make([]bool, ds.Len())
	for i, e := range ds.Examples {
		out[i] = e.Label
	}
	return out
}

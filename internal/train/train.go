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

	"tahoma/internal/img"
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

// Model trains a single model in place and returns a report. Each minibatch
// runs on up to GOMAXPROCS cores.
func Model(m *model.Model, ds synth.Dataset, opts Options) (Report, error) {
	opts.setDefaults()
	if ds.Len() == 0 {
		return Report{}, fmt.Errorf("train: empty training set for %s", m.ID())
	}
	return fit(m, materialize(m, ds), opts, runtime.GOMAXPROCS(0))
}

// replica runs forward and backward passes for fit beside other replicas:
// a clone of the model's network, with its parameters in the same order.
type replica struct {
	net    *nn.Network
	params []*nn.Param
}

// fit trains m with Adam over shuffled minibatches. The weights do not
// change inside a minibatch, so its samples run forward and backward on up
// to min(workers, BatchSize) replicas at once. Sample k of the minibatch
// writes its gradient into slot k and its loss into losses[k]; the slots are
// then added into the model's gradients, and the losses into the epoch loss,
// in sample order, before the optimizer steps.
//
// The weights are bit-identical to a serial per-sample loop for any workers.
// Every gradient element takes one addition per sample (see Conv2D's and
// Dense's accumulateGrads), so the serial loop computes g+t0, then +t1, and
// so on, from g = +0. A slot holds +0+t, which equals t except that −0
// becomes +0, and a sum that starts at +0 is never −0, so adding either zero
// to it gives the same bits.
func fit(m *model.Model, samples []sample, opts Options, workers int) (Report, error) {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	opt := nn.NewAdam(opts.LR)
	params := m.Net.Params()
	bs := opts.BatchSize

	reps := make([]replica, max(1, min(workers, bs)))
	for i := range reps {
		net := m.Net.Clone()
		reps[i] = replica{net: net, params: net.Params()}
	}
	slots := make([][]*tensor.Tensor, bs)
	for k := range slots {
		slots[k] = make([]*tensor.Tensor, len(params))
		for j, p := range params {
			slots[k][j] = tensor.New(p.Value.Shape...)
		}
	}
	losses := make([]float32, bs)
	// run passes the minibatch samples k = first, first+stride, ... through
	// r, pointing r's gradient accumulators at each sample's slot.
	run := func(r replica, batch []int, first, stride int) {
		for k := first; k < len(batch); k += stride {
			for j, p := range r.params {
				p.Grad = slots[k][j]
				p.Grad.Zero()
			}
			s := samples[batch[k]]
			loss, dz := nn.BCELossWithLogits(r.net.Forward(s.x), s.label)
			losses[k] = loss
			r.net.Backward(dz / float32(bs))
		}
	}

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for b0 := 0; b0 < len(order); b0 += bs {
			batch := order[b0:min(b0+bs, len(order))]
			n := min(len(reps), len(batch))
			var wg sync.WaitGroup
			for w := 1; w < n; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(reps[w], batch, w, n)
				}()
			}
			run(reps[0], batch, 0, n)
			wg.Wait()
			// 1·v is exact, so each axpy adds the slot as it is.
			m.Net.ZeroGrad()
			for j, p := range params {
				for k := range batch {
					tensor.Axpy(p.Grad.Data, slots[k][j].Data, 1)
				}
			}
			for k := range batch {
				epochLoss += float64(losses[k])
			}
			opt.Step(params)
		}
		lastLoss = epochLoss / float64(len(samples))
	}

	pix := make([][]float32, len(samples))
	for i, s := range samples {
		pix[i] = s.x.Data
	}
	probs := make([]float32, len(samples))
	m.Net.PredictBatch(pix, probs)
	correct := 0
	for i, s := range samples {
		if (probs[i] >= 0.5) == (s.label >= 0.5) {
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
// the cheap ones finish, and each fit also runs its minibatches on up to
// workers cores (see fit). Each fit depends only on its job, so the weights
// do not depend on workers or on the order. workers <= 0 uses GOMAXPROCS.
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
				reports[i], errs[i] = fit(j.Model, repCache[j.Model.Xform.ID()], j.Opts, workers)
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
// outputs. It materializes the model's representation of every example once
// and scores them through the batched kernels, so out[i] has the bits
// m.ScoreFull(example i) has.
func Scores(m *model.Model, ds synth.Dataset) []float32 {
	reps := make([]*img.Image, ds.Len())
	for i, e := range ds.Examples {
		reps[i] = m.Xform.Apply(e.Image)
	}
	out := make([]float32, len(reps))
	if err := m.ScoreBatchInto(reps, out); err != nil {
		panic(err) // Apply always yields the transform's geometry
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

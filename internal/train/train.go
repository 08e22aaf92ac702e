// Package train fits TAHOMA's basic models to a labeled training split. The
// grid of models is embarrassingly parallel, so All trains models across a
// worker pool; representations are materialized once per distinct transform
// and shared read-only between the models that consume them, mirroring how
// the paper amortizes preprocessing during system initialization.
package train

import (
	"fmt"
	"math/rand"
	"sort"

	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/nn"
	"tahoma/internal/par"
	"tahoma/internal/synth"
	"tahoma/internal/tensor"
	"tahoma/internal/xform"
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

// represent is t's representation of src in float32: what every fit and
// every calibration score in this package reads. Serving never runs it; it
// reads the expansion of the integer derivation from records
// (xform.Transform.ApplyRecord), whose bytes are within 1 of this transform's
// stored form (TestDerivationWithinOneOfFloat). The colour projection comes
// first, at full resolution: every plane for RGB (a transform that keeps
// src's own mode), the Rec.601 luma for Gray, one plane for R, G or B, and
// the only plane of a single-plane src for all three. Each plane is then
// resampled bilinearly to t.Size×t.Size: output coordinate i of an axis
// reads source position (i+0.5)·src/n − 0.5, clamped at 0, and blends the
// two samples around it, the second clamped at the last. Every product is
// rounded by an explicit float32 conversion before it is added, the Go spec's
// barrier against fusing the two into one multiply-add, so a trained model is
// the same on every GOARCH.
func represent(t xform.Transform, src *img.Image) *img.Image {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	mode := t.Color
	planes := [][]float32{nil}
	switch {
	case mode == img.RGB:
		mode, planes = src.Mode, planes[:0]
		for c := range src.Channels() {
			planes = append(planes, src.Plane(c))
		}
	case src.Mode != img.RGB:
		planes[0] = src.Plane(0)
	case mode == img.Gray:
		r, g, b := src.Plane(0), src.Plane(1), src.Plane(2)
		planes[0] = make([]float32, len(r))
		for i := range r {
			planes[0][i] = float32(0.299*r[i]) + float32(0.587*g[i]) + float32(0.114*b[i])
		}
	default:
		planes[0] = src.Plane(int(mode - img.Red))
	}
	n := t.Size
	out := img.New(n, n, mode)
	tap := func(i int, scale float32, srcN int) (i0, i1 int, f float32) {
		s := max(float32((float32(i)+0.5)*scale)-0.5, 0)
		i0 = int(s)
		return i0, min(i0+1, srcN-1), s - float32(i0)
	}
	xScale, yScale := float32(src.W)/float32(n), float32(src.H)/float32(n)
	for c, p := range planes {
		o := out.Plane(c)
		if src.W == n && src.H == n {
			copy(o, p)
			continue
		}
		for y := range n {
			y0, y1, fy := tap(y, yScale, src.H)
			r0, r1 := p[y0*src.W:], p[y1*src.W:]
			for x := range n {
				x0, x1, fx := tap(x, xScale, src.W)
				top := r0[x0] + float32((r0[x1]-r0[x0])*fx)
				bot := r1[x0] + float32((r1[x1]-r1[x0])*fx)
				o[y*n+x] = top + float32((bot-top)*fy)
			}
		}
	}
	return out
}

func materialize(m *model.Model, ds synth.Dataset) []sample {
	out := make([]sample, len(ds.Examples))
	for i, e := range ds.Examples {
		rep := represent(m.Xform, e.Image)
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
	return fit(m, materialize(m, ds), opts, 0)
}

// replica runs forward and backward passes for fit beside other replicas:
// a clone of the model's network, with its parameters in the same order.
type replica struct {
	net    *nn.Network
	params []*nn.Param
}

// fit trains m with Adam over shuffled minibatches. The weights do not
// change inside a minibatch, so its samples run forward and backward on
// par.Workers(workers, BatchSize) replicas at once, sample k on the replica of
// the goroutine that takes it. Sample k of the minibatch
// writes its gradient into slot k and its loss into losses[k]; the slots are
// then added into the model's gradients, and the losses into the epoch loss,
// in sample order, before the optimizer steps.
//
// The weights are bit-identical to a serial per-sample loop for any workers.
// Every gradient element takes one addition per sample (see nn's
// convBlock.accumulate and Dense.accumulateGrads), so the serial loop
// computes g+t0, then +t1, and so on, from g = +0. A slot holds +0+t, which equals t except that −0
// becomes +0, and a sum that starts at +0 is never −0, so adding either zero
// to it gives the same bits.
func fit(m *model.Model, samples []sample, opts Options, workers int) (Report, error) {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	opt := nn.NewAdam(opts.LR)
	params := m.Net.Params()
	bs := opts.BatchSize

	reps := make([]replica, par.Workers(workers, bs))
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
	// sample passes minibatch sample k through replica w, pointing its
	// gradient accumulators at the sample's slot.
	var batch []int
	sample := func(w, k int) error {
		r := reps[w]
		for j, p := range r.params {
			p.Grad = slots[k][j]
			p.Grad.Zero()
		}
		s := samples[batch[k]]
		loss, dz := nn.BCELossWithLogits(r.net.Forward(s.x), s.label)
		losses[k] = loss
		r.net.Backward(dz / float32(bs))
		return nil
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
			batch = order[b0:min(b0+bs, len(order))]
			_ = par.Do(len(batch), len(reps), sample) // sample never fails
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
	err := par.Do(len(jobs), workers, func(_, k int) error {
		i := order[k]
		j := jobs[i]
		var err error
		if reports[i], err = fit(j.Model, repCache[j.Model.Xform.ID()], j.Opts, workers); err != nil {
			return fmt.Errorf("train: model %s: %w", j.Model.ID(), err)
		}
		return nil
	})
	return reports, err
}

// Scores runs a trained model over a dataset and returns its probability
// outputs: the float32 representation training reads (represent) of every
// example, scored through the batched kernels, so out[i] has the bits
// m.Score of that representation has. Thresholds calibrated on them are
// calibrated on what training reads, which is within 1 of what serving
// reads per stored sample, not equal to it.
func Scores(m *model.Model, ds synth.Dataset) []float32 {
	reps := make([]*img.Image, ds.Len())
	for i, e := range ds.Examples {
		reps[i] = represent(m.Xform, e.Image)
	}
	out := make([]float32, len(reps))
	if err := m.ScoreBatchInto(reps, out); err != nil {
		panic(err) // represent always yields the transform's geometry
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

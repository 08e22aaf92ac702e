// Package model defines TAHOMA's basic classification model (Definition 4):
// a CNN parameterized by an architecture specification (arch.Spec) and an
// input transformation function (xform.Transform). The model's physical
// input representation is part of its identity — two networks with the same
// weights but different input representations are different operators with
// different data-handling costs.
package model

import (
	"fmt"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/nn"
	"tahoma/internal/tensor"
	"tahoma/internal/xform"
)

// Kind distinguishes the grid-trained specialized models from the expensive
// reference classifier (the paper's fine-tuned ResNet50 analogue).
type Kind uint8

// Model kinds.
const (
	Basic Kind = iota
	Deep
)

// String returns "basic" or "deep".
func (k Kind) String() string {
	if k == Deep {
		return "deep"
	}
	return "basic"
}

// Model is one basic classification model M.
type Model struct {
	Arch  arch.Spec
	Xform xform.Transform
	Net   *nn.Network
	Kind  Kind

	batch [][]float32 // reused ScoreBatch sample-slice scratch
}

// New builds an untrained model with deterministic initial weights derived
// from seed, the spec and the transform.
func New(spec arch.Spec, t xform.Transform, kind Kind, seed int64) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Mix the identity into the seed so every grid cell starts differently
	// but reproducibly.
	mixed := seed
	for _, c := range spec.ID() + "@" + t.ID() {
		mixed = mixed*1099511628211 + int64(c)
	}
	net, err := spec.BuildInit(t.Channels(), t.Size, mixed)
	if err != nil {
		return nil, fmt.Errorf("model %s@%s: %w", spec.ID(), t.ID(), err)
	}
	return &Model{Arch: spec, Xform: t, Net: net, Kind: kind}, nil
}

// ID returns the canonical model identifier, e.g. "c2w8d16k3@16x16/gray".
func (m *Model) ID() string {
	return m.Arch.ID() + "@" + m.Xform.ID()
}

// InputTensor wraps an already-transformed representation as a CHW tensor.
// The pixel buffer is shared, not copied: img.Image stores planar float32,
// which is exactly the layout the network consumes.
func InputTensor(rep *img.Image) *tensor.Tensor {
	return tensor.NewFrom(rep.Pix, rep.Channels(), rep.H, rep.W)
}

// Score runs inference on an already-transformed representation and returns
// the probability in [0,1] that the predicate holds. The representation's
// geometry must match the model's transform.
func (m *Model) Score(rep *img.Image) (float32, error) {
	if rep.W != m.Xform.Size || rep.H != m.Xform.Size || rep.Channels() != m.Xform.Channels() {
		return 0, fmt.Errorf("model %s: representation %dx%d/%d channels does not match transform %s",
			m.ID(), rep.W, rep.H, rep.Channels(), m.Xform.ID())
	}
	return m.Net.Predict(InputTensor(rep)), nil
}

// ScoreBatchInto scores a batch of already-transformed representations in
// one pass through the network's batched kernels, writing the probabilities
// into out (len(out) must equal len(reps)). Geometry is validated once per
// batch up front — one cheap comparison per representation instead of the
// per-frame error-path formatting Score carries — and out[i] is bit-identical
// to Score(reps[i]) at every batch size. Like the underlying network, a
// Model's batch scratch is exclusive: clone the model per goroutine.
func (m *Model) ScoreBatchInto(reps []*img.Image, out []float32) error {
	if len(out) != len(reps) {
		return fmt.Errorf("model %s: ScoreBatch output holds %d values for %d representations", m.ID(), len(out), len(reps))
	}
	if len(reps) == 0 {
		return nil
	}
	size, ch := m.Xform.Size, m.Xform.Channels()
	for i, rep := range reps {
		if rep.W != size || rep.H != size || rep.Channels() != ch {
			return fmt.Errorf("model %s: representation %d is %dx%d/%d channels, transform %s wants %dx%d/%d",
				m.ID(), i, rep.W, rep.H, rep.Channels(), m.Xform.ID(), size, size, ch)
		}
	}
	if cap(m.batch) < len(reps) {
		m.batch = make([][]float32, len(reps))
	}
	m.batch = m.batch[:len(reps)]
	for i, rep := range reps {
		m.batch[i] = rep.Pix
	}
	m.Net.PredictBatch(m.batch, out)
	for i := range m.batch {
		m.batch[i] = nil // don't pin pixel buffers between calls
	}
	return nil
}

// ScoreBatch is ScoreBatchInto with an allocated result slice.
func (m *Model) ScoreBatch(reps []*img.Image) ([]float32, error) {
	out := make([]float32, len(reps))
	if err := m.ScoreBatchInto(reps, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MACs returns the analytic inference cost proxy for one forward pass.
func (m *Model) MACs() int64 { return m.Net.MACs() }

// Clone returns a model sharing weights with m but safe to use for inference
// concurrently with m.
func (m *Model) Clone() *Model {
	return &Model{Arch: m.Arch, Xform: m.Xform, Net: m.Net.Clone(), Kind: m.Kind}
}

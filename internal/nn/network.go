package nn

import (
	"fmt"
	"math"
	"math/rand"

	"tahoma/internal/tensor"
)

// Network is a feed-forward stack of layers ending in a single logit. The
// final sigmoid is folded into the loss for numerical stability; Predict
// applies it explicitly.
type Network struct {
	Layers  []Layer
	inShape []int
	bin     *tensor.Tensor // batch input pack scratch [C, B, H, W]
	stages  []batchStage   // batched plan (nil: the layers have no batched form)
	chunk   int            // samples per pass through stages
	first   int            // index of the first layer with parameters (0 if none)
}

// NewNetwork builds a network from layers and validates that the shapes chain
// together from the given CHW input shape to a single output logit.
func NewNetwork(inShape []int, layers ...Layer) (*Network, error) {
	shape := inShape
	for _, l := range layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name(), err)
		}
		shape = out
	}
	if len(shape) != 1 || shape[0] != 1 {
		return nil, fmt.Errorf("nn: network must end in a single logit, ends in %v", shape)
	}
	in := make([]int, len(inShape))
	copy(in, inShape)
	return newNetwork(in, layers), nil
}

func newNetwork(inShape []int, layers []Layer) *Network {
	n := &Network{Layers: layers, inShape: inShape}
	n.stages, n.chunk = planBatch(inShape, layers)
	for i, l := range layers {
		if len(l.Params()) > 0 {
			n.first = i
			break
		}
	}
	return n
}

// Init initializes all parameterized layers from rng.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			v.Init(rng)
		case *Dense:
			v.Init(rng)
		}
	}
}

// Forward runs the network and returns the raw output logit.
func (n *Network) Forward(x *tensor.Tensor) float32 {
	t := x
	for _, l := range n.Layers {
		t = l.Forward(t)
	}
	return t.Data[0]
}

// Predict returns the sigmoid probability that the input is a positive
// example of the model's binary predicate.
func (n *Network) Predict(x *tensor.Tensor) float32 {
	return tensor.Sigmoid(n.Forward(x))
}

// ForwardBatch runs inference on a batch of CHW samples given as raw planar
// pixel slices, writing the raw logits into out (which must hold at least
// len(samples) values). The batch descends the network's batched plan in
// cache-sized chunks: each chunk is packed into the channel-major
// [C, B, H, W] layout and runs every stage once — one pass per conv block,
// one GEMM per dense layer. Every Conv2D must open a Conv2D → ReLU →
// MaxPool2 block, as arch.Build emits; other layer sequences panic.
//
// out[s] is bit-identical to Forward(sample s) at every batch size. The
// network's batch scratch is reused across calls (and never shrinks), so a
// Network is NOT safe for concurrent use; clone per goroutine as with
// Forward.
func (n *Network) ForwardBatch(samples [][]float32, out []float32) {
	bsz := len(samples)
	if len(out) < bsz {
		panic(fmt.Sprintf("nn: ForwardBatch output holds %d values for %d samples", len(out), bsz))
	}
	if bsz == 0 {
		return
	}
	if len(n.inShape) != 3 {
		panic(fmt.Sprintf("nn: ForwardBatch needs a CHW input shape, network has %v", n.inShape))
	}
	c, h, w := n.inShape[0], n.inShape[1], n.inShape[2]
	hw := h * w
	for s, pix := range samples {
		if len(pix) != c*hw {
			panic(fmt.Sprintf("nn: batch sample %d has %d values, network wants %d", s, len(pix), c*hw))
		}
	}
	if n.stages == nil {
		panic("nn: ForwardBatch needs conv layers in Conv2D → ReLU → MaxPool2 blocks")
	}
	if n.bin == nil {
		n.bin = &tensor.Tensor{}
	}
	for s0 := 0; s0 < bsz; s0 += n.chunk {
		s1 := min(s0+n.chunk, bsz)
		cur := samples[s0:s1]
		n.bin.EnsureShape(c, len(cur), h, w)
		bd := n.bin.Data
		for ci := 0; ci < c; ci++ {
			for s, pix := range cur {
				copy(bd[(ci*len(cur)+s)*hw:(ci*len(cur)+s+1)*hw], pix[ci*hw:(ci+1)*hw])
			}
		}
		t := n.bin
		for _, st := range n.stages {
			t = st.forwardBatch(t)
		}
		copy(out[s0:s1], t.Data[:len(cur)])
	}
}

// PredictBatch is ForwardBatch followed by the sigmoid, so out[s] is the
// probability Predict returns for sample s.
func (n *Network) PredictBatch(samples [][]float32, out []float32) {
	n.ForwardBatch(samples, out)
	for i := range out[:len(samples)] {
		out[i] = tensor.Sigmoid(out[i])
	}
}

// Backward propagates the scalar logit gradient through the network,
// accumulating parameter gradients. Nothing reads the gradient with respect
// to the network's input, so propagation stops at the first layer with
// parameters, which only accumulates its parameter gradients: for a conv
// first layer that skips the Wᵀ·dY product and the col2im scatter, for a
// dense one the input-gradient axpys.
func (n *Network) Backward(dlogit float32) {
	g := tensor.NewFrom([]float32{dlogit}, 1)
	for i := len(n.Layers) - 1; i > n.first; i-- {
		g = n.Layers[i].Backward(g)
	}
	if pg, ok := n.Layers[n.first].(paramGrader); ok { // not ok: no layer has parameters
		pg.accumulateGrads(g)
	}
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients, allocating any accumulator a
// clone does not hold yet.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.grad().Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// MACs estimates the multiply-accumulate operations of one forward pass.
// This is the analytic inference-cost proxy used by the deterministic cost
// model (the profiler measures real wall time separately).
func (n *Network) MACs() int64 {
	var total int64
	shape := n.inShape
	for _, l := range n.Layers {
		out, err := l.OutShape(shape)
		if err != nil {
			return total
		}
		switch v := l.(type) {
		case *Conv2D:
			// out pixels × filters × (inC·K·K)
			total += int64(out[1]) * int64(out[2]) * int64(v.OutC) * int64(v.InC*v.K*v.K)
		case *Dense:
			total += int64(v.In) * int64(v.Out)
		}
		shape = out
	}
	return total
}

// Clone returns a network sharing parameter values with n but with its own
// scratch buffers and gradient accumulators, so it can run inference, or
// forward and backward passes, beside n and other clones. The accumulators
// are allocated by the clone's first Backward, so inference clones never
// hold them. Updating the shared values (an optimizer step) while another
// network reads them is a race: step only between passes.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.clone()
	}
	return newNetwork(n.inShape, layers)
}

// Weights serializes all parameter values into a flat slice in layer order.
func (n *Network) Weights() []float32 {
	var out []float32
	for _, p := range n.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetWeights loads a flat slice previously produced by Weights. It returns an
// error if the length does not match the network's parameter count.
func (n *Network) SetWeights(w []float32) error {
	if len(w) != n.ParamCount() {
		return fmt.Errorf("nn: weight blob has %d values, network needs %d", len(w), n.ParamCount())
	}
	off := 0
	for _, p := range n.Params() {
		m := p.Value.Len()
		copy(p.Value.Data, w[off:off+m])
		off += m
	}
	return nil
}

// BCELossWithLogits returns the binary cross-entropy loss between a logit z
// and a target y in {0,1}, computed stably, along with dLoss/dz.
func BCELossWithLogits(z float32, y float32) (loss, dz float32) {
	zf := float64(z)
	yf := float64(y)
	// loss = max(z,0) - z*y + log(1+exp(-|z|))
	l := math.Max(zf, 0) - zf*yf + math.Log1p(math.Exp(-math.Abs(zf)))
	p := 1.0 / (1.0 + math.Exp(-zf))
	return float32(l), float32(p - yf)
}

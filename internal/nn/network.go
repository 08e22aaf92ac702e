// Package nn implements the paper's basic model (Definition 4), the Figure 3
// template: [conv → ReLU → 2×2 max-pool]×N, then a dense layer with its ReLU
// and a dense layer to a single logit whose sigmoid is the predicate's
// probability, with backpropagation, binary cross-entropy loss and the Adam
// optimizer.
//
// Every conv block is one implicit-GEMM pass with a pooling epilogue
// (convBlock). Training runs one CHW sample at a time through Forward and
// Backward; inference runs single samples through Forward or batches
// through ForwardBatch, which runs the same blocks over cache-sized chunks
// of samples and each dense layer once per group of up to 64, so a logit
// has the same bits either way. A Network keeps scratch buffers,
// so it is NOT safe for concurrent use. For parallel inference or training,
// give each goroutine its own network via Clone (weights are shared;
// scratch and gradient accumulators are not).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"tahoma/internal/tensor"
)

// batchChunkBytes caps the working set of the widest conv block in one
// batch chunk: its zero-padded input planes plus one filter's accumulator,
// 4·(C+1)·(H+K/2)·(W+K/2) bytes a sample. Chunking the batch through the
// blocks keeps that set cache-resident while every filter re-reads the
// input, and bounds a worker's conv scratch to a constant regardless of the
// engine's batch size.
const batchChunkBytes = 128 << 10

// batchGroup is the most samples one pass of the dense layers takes, the
// engine's batch (exec.DefaultBatch): the hidden layer's GEMM costs about
// half as much per multiply-add at 64 columns as at 16. A group runs
// through the conv blocks in chunks of at most batchChunkBytes.
const batchGroup = 64

// Network is the Figure 3 template over a fixed C×H×W input, ending in a
// single logit. The final sigmoid is folded into the loss for numerical
// stability; Predict applies it explicitly.
type Network struct {
	blocks  []*convBlock  // conv → ReLU → 2×2 max-pool, first to last
	hidden  *Dense        // the flattened features → the dense width, then ReLU
	out     *Dense        // the dense width → the logit
	c, h, w int           // the input shape
	chunk   int           // samples per batched pass through the blocks
	bflat   tensor.Tensor // ForwardBatch's dense input [C·H·W, B]
	cols    [][]float32   // ForwardBatch's columns for one row block of bflat
	dlogit  tensor.Tensor // Backward's output gradient [1]
}

// NewNetwork builds the template over a c×h×w input: one conv block per
// entry of blocks, each {filters, kernel} with an odd kernel, then a dense
// layer of dense units. It refuses a non-positive dimension, width or
// kernel, an even kernel, and a block whose input is below 2×2.
//
// The batch chunk is the largest number of samples whose widest conv block
// working set fits batchChunkBytes, clamped to [1, batchGroup].
func NewNetwork(c, h, w int, blocks [][2]int, dense int) (*Network, error) {
	if c <= 0 || h <= 0 || w <= 0 || dense <= 0 {
		return nil, fmt.Errorf("nn: input %d×%d×%d or dense width %d is not positive", c, h, w, dense)
	}
	n := &Network{c: c, h: h, w: w, chunk: batchGroup}
	worst := 0
	for i, b := range blocks {
		filters, k := b[0], b[1]
		if filters <= 0 || k <= 0 || k%2 == 0 {
			return nil, fmt.Errorf("nn: block %d needs a positive filter count and an odd positive kernel, got %d, %d", i, filters, k)
		}
		if h < 2 || w < 2 {
			return nil, fmt.Errorf("nn: block %d input %d×%d is too small to pool", i, h, w)
		}
		worst = max(worst, 4*(c+1)*(h+k/2)*(w+k/2))
		n.blocks = append(n.blocks, &convBlock{conv: newConv2D(c, filters, k)})
		c, h, w = filters, h/2, w/2
	}
	if worst > 0 {
		n.chunk = min(max(batchChunkBytes/worst, 1), batchGroup)
	}
	n.hidden, n.out = newDense(c*h*w, dense), newDense(dense, 1)
	return n, nil
}

// Init initializes every parameter from rng, in parameter order.
func (n *Network) Init(rng *rand.Rand) {
	for _, b := range n.blocks {
		b.conv.Init(rng)
	}
	n.hidden.Init(rng)
	n.out.Init(rng)
}

// Forward runs the network on one CHW sample and returns the raw output
// logit, keeping what Backward reads. Each conv block is one pass of the
// implicit-GEMM conv block ForwardBatch runs, at a batch of one.
func (n *Network) Forward(x *tensor.Tensor) float32 {
	if x.Len() != n.c*n.h*n.w {
		panic(fmt.Sprintf("nn: input has %d values, network wants %d×%d×%d", x.Len(), n.c, n.h, n.w))
	}
	t, h, w := x, n.h, n.w
	for _, b := range n.blocks {
		b.run(t.Data, nil, 1, h, w, true)
		t, h, w = &b.out, h/2, w/2
	}
	a := n.hidden.Forward(t)
	ad := a.Data
	for i, v := range ad {
		if !(v > 0) { // NaN too
			ad[i] = 0
		}
	}
	return n.out.Forward(a).Data[0]
}

// Predict returns the sigmoid probability that the input is a positive
// example of the model's binary predicate.
func (n *Network) Predict(x *tensor.Tensor) float32 {
	return tensor.Sigmoid(n.Forward(x))
}

// ForwardBatch runs inference on a batch of CHW samples given as raw planar
// pixel slices, writing the raw logits into out (which must hold at least
// len(samples) values). The batch runs in groups of up to batchGroup
// samples, each gathered into the [C·H·W, B] matrix whose column s is
// sample s flattened, so each dense layer is one GEMM per group. Without
// conv blocks the samples are that matrix's columns. With them, a group
// runs through the blocks in cache-sized chunks: the first block pads each
// chunk's planes straight from the samples, each block's output is the
// channel-major [C, B, H, W] layout (sample s of channel c is a contiguous
// H·W plane) the next one reads, and the last block's output planes fill
// the chunk's columns.
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
	plane := n.h * n.w
	for s, pix := range samples {
		if len(pix) != n.c*plane {
			panic(fmt.Sprintf("nn: batch sample %d has %d values, network wants %d", s, len(pix), n.c*plane))
		}
	}
	for g0 := 0; g0 < bsz; g0 += batchGroup {
		group := samples[g0:min(g0+batchGroup, bsz)]
		ng := len(group)
		n.bflat.EnsureShape(n.hidden.In, ng)
		if len(n.blocks) == 0 {
			transpose(n.bflat.Data, ng, 0, group)
		} else {
			for s0 := 0; s0 < ng; s0 += n.chunk {
				n.flattenChunk(group[s0:min(s0+n.chunk, ng)], s0)
			}
		}
		// Rectified in place with a branchless max, since activations have
		// random signs and a compare-and-branch mispredicts half the time;
		// for finite values max(v, 0) has Forward's bits.
		a := n.hidden.forwardBatch(&n.bflat)
		ad := a.Data
		for i, v := range ad {
			ad[i] = max(v, 0)
		}
		copy(out[g0:], n.out.forwardBatch(a).Data[:ng])
	}
}

// flattenChunk runs one chunk of a group through the conv blocks and writes
// the last block's output into the group's dense input, columns s0 on.
func (n *Network) flattenChunk(cur [][]float32, s0 int) {
	// The first block pads its planes straight from the samples, each later
	// one from the channel-major output of the block before.
	nb, c, h, w := len(cur), n.c, n.h, n.w
	var x []float32
	samples := cur
	for _, b := range n.blocks {
		b.run(x, samples, nb, h, w, false)
		x, samples, c, h, w = b.out.Data, nil, b.conv.OutC, h/2, w/2
	}
	if cap(n.cols) < nb {
		n.cols = make([][]float32, n.chunk)
	}
	hw, cols, ng := h*w, n.cols[:nb], n.bflat.Shape[1]
	// Plane (ci, s) is rows ci·H·W … of column s0+s.
	for ci := 0; ci < c; ci++ {
		for s := range cols {
			pl := ci*nb + s
			cols[s] = x[pl*hw : (pl+1)*hw]
		}
		transpose(n.bflat.Data[ci*hw*ng:], ng, s0, cols)
	}
}

// transpose writes the vectors vs as columns col … col+len(vs)−1 of the
// row-major matrix fd with row width g: fd[i·g+col+s] = vs[s][i]. Four
// columns go at a time, so each row takes one run of four values.
func transpose(fd []float32, g, col int, vs [][]float32) {
	s := 0
	for ; s+4 <= len(vs); s += 4 {
		v0, v1, v2, v3 := vs[s], vs[s+1], vs[s+2], vs[s+3]
		v1, v2, v3 = v1[:len(v0)], v2[:len(v0)], v3[:len(v0)]
		d := col + s
		for i, v := range v0 {
			r := fd[d : d+4 : d+4]
			r[0], r[1], r[2], r[3] = v, v1[i], v2[i], v3[i]
			d += g
		}
	}
	for ; s < len(vs); s++ {
		d := col + s
		for _, v := range vs[s] {
			fd[d] = v
			d += g
		}
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

// Backward propagates the scalar logit gradient of the last Forward through
// the network, accumulating parameter gradients. Nothing reads the gradient
// with respect to the network's input, so propagation stops at the first
// layer with parameters, which only accumulates its parameter gradients:
// for a conv block that skips the Wᵀ·dY product and the col2im scatter,
// for the hidden dense layer of a network without blocks the input-gradient
// axpys.
func (n *Network) Backward(dlogit float32) {
	n.dlogit.EnsureShape(1)
	n.dlogit.Data[0] = dlogit
	g := n.out.Backward(&n.dlogit)
	for i, a := range n.hidden.out.Data { // the ReLU's mask: a > 0 where its input was
		if !(a > 0) {
			g.Data[i] = 0
		}
	}
	if len(n.blocks) == 0 {
		n.hidden.accumulateGrads(g)
		return
	}
	g = n.hidden.Backward(g)
	for i := len(n.blocks) - 1; i > 0; i-- {
		g = n.blocks[i].Backward(g)
	}
	n.blocks[0].accumulateGrads(g)
}

// Params returns all trainable parameters in order: each block's conv
// weights and bias, then the hidden and the output layer's.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, b := range n.blocks {
		ps = append(ps, b.conv.W, b.conv.B)
	}
	return append(ps, n.hidden.W, n.hidden.B, n.out.W, n.out.B)
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

// MACs estimates the multiply-accumulate operations of one forward pass:
// per conv block, output pixels × filters × inC·K·K, then each dense
// layer's In·Out. This is the analytic inference-cost proxy used by the
// deterministic cost model (the profiler measures real wall time
// separately).
func (n *Network) MACs() int64 {
	var total int64
	h, w := int64(n.h), int64(n.w)
	for _, b := range n.blocks {
		c := b.conv
		total += h * w * int64(c.OutC) * int64(c.InC*c.K*c.K)
		h, w = h/2, w/2
	}
	return total + int64(n.hidden.In)*int64(n.hidden.Out) + int64(n.out.In)*int64(n.out.Out)
}

// Clone returns a network sharing parameter values with n but with its own
// scratch buffers and gradient accumulators, so it can run inference, or
// forward and backward passes, beside n and other clones. The accumulators
// are allocated by the clone's first Backward, so inference clones never
// hold them. Updating the shared values (an optimizer step) while another
// network reads them is a race: step only between passes.
func (n *Network) Clone() *Network {
	m := &Network{hidden: n.hidden.clone(), out: n.out.clone(), c: n.c, h: n.h, w: n.w, chunk: n.chunk}
	for _, b := range n.blocks {
		m.blocks = append(m.blocks, &convBlock{conv: b.conv.clone()})
	}
	return m
}

// Weights serializes all parameter values into a flat slice in parameter
// order.
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
	l := math.Max(zf, 0) - float64(zf*yf) + math.Log1p(math.Exp(-math.Abs(zf)))
	p := 1.0 / (1.0 + math.Exp(-zf))
	return float32(l), float32(p - yf)
}

package nn

import (
	"math"
	"math/rand"

	"tahoma/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

func newParam(shape ...int) *Param {
	return &Param{Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// grad returns the gradient accumulator, allocating it on first use: a
// clone's parameters share the original's values but start without one, so
// clones that only run inference never pay for it.
func (p *Param) grad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Shape...)
	}
	return p.Grad
}

// shareValue returns a parameter with p's value and its own gradient
// accumulator.
func (p *Param) shareValue() *Param { return &Param{Value: p.Value} }

// Dense is a fully connected layer: y = W·x + b with W stored as [out, in].
type Dense struct {
	In, Out int
	W       *Param
	B       *Param

	x    *tensor.Tensor
	xcol tensor.Tensor  // Forward's [In, 1] view of x
	out  tensor.Tensor  // Forward's [Out] view of bout
	dx   *tensor.Tensor // nil until the first input gradient
	bout tensor.Tensor  // [Out, B]
}

// newDense creates a fully connected layer mapping in features to out.
func newDense(in, out int) *Dense {
	return &Dense{In: in, Out: out, W: newParam(out, in), B: newParam(out)}
}

// Init initializes weights with Glorot-uniform scaling using rng.
func (d *Dense) Init(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(d.In+d.Out))
	d.W.Value.RandomizeUniform(rng, limit)
	d.B.Value.Zero()
}

// Forward is forwardBatch over a batch of one, so a sample's output has the
// same bits alone or in a batch. x holds In values in any shape (a conv
// block's pooled [C, 1, H, W] is its flattened vector), and is kept for
// Backward.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.x = x
	d.xcol.Shape = append(d.xcol.Shape[:0], d.In, 1)
	d.xcol.Data = x.Data
	d.out.Shape = append(d.out.Shape[:0], d.Out)
	d.out.Data = d.forwardBatch(&d.xcol).Data
	return &d.out
}

// forwardBatch runs the whole batch x [In, B] as one [Out, In]·[In, B] GEMM
// plus a bias broadcast. Each output is a dot product that starts at +0 and
// sums over the inputs in order, then adds the bias (see tensor.Gemm),
// whatever B is.
func (d *Dense) forwardBatch(x *tensor.Tensor) *tensor.Tensor {
	bsz := x.Shape[1]
	d.bout.EnsureShape(d.Out, bsz)
	tensor.Gemm(&d.bout, d.W.Value, x)
	for o, b := range d.B.Value.Data {
		row := d.bout.Data[o*bsz : (o+1)*bsz]
		for i := range row {
			row[i] += b
		}
	}
	return &d.bout
}

// Backward takes the gradient of the last Forward's output, accumulates the
// parameter gradients and returns the gradient of its input. Both gradient
// updates are row axpys, so each element takes g·v once per output o, in
// increasing o. The input-gradient scratch is allocated on the first call,
// so a first layer (see Network.Backward) never holds it.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	d.accumulateGrads(dy)
	if d.dx == nil {
		d.dx = tensor.New(d.In)
	}
	wd := d.W.Value.Data
	clear(d.dx.Data)
	for o, g := range dy.Data {
		tensor.Axpy(d.dx.Data, wd[o*d.In:(o+1)*d.In], g)
	}
	return d.dx
}

// accumulateGrads is Backward without the input gradient. Each gradient
// element takes one product per call.
func (d *Dense) accumulateGrads(dy *tensor.Tensor) {
	gw, gb := d.W.grad().Data, d.B.grad().Data
	for o, g := range dy.Data {
		gb[o] += g
		tensor.Axpy(gw[o*d.In:(o+1)*d.In], d.x.Data, g)
	}
}

// clone returns a layer sharing d's parameter values, with its own scratch
// and gradient accumulators.
func (d *Dense) clone() *Dense {
	return &Dense{In: d.In, Out: d.Out, W: d.W.shareValue(), B: d.B.shareValue()}
}

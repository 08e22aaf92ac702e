// Package nn implements the small convolutional networks TAHOMA uses as
// basic classification models: Conv2D/MaxPool/ReLU/Dense/Sigmoid layers with
// full backpropagation, binary cross-entropy loss and the Adam optimizer.
//
// A Network compiles its layers once into a plan in which every Conv2D →
// ReLU → MaxPool2 block is one implicit-GEMM pass with a pooling epilogue
// (convBlock). Training runs one CHW sample at a time through that plan's
// Forward and Backward; inference runs single samples through Forward or
// batches through ForwardBatch, which walks the same blocks over a chunk of
// samples, so a logit has the same bits either way. A Network keeps per-step
// scratch buffers, so it is NOT safe for concurrent use. For parallel
// inference or training, give each goroutine its own network via Clone
// (weights are shared; scratch and gradient accumulators are not).
package nn

import (
	"fmt"
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

// addRowBias adds bias[r] to every element of row r of a row-major matrix:
// the bias broadcast after Dense's GEMM, one sample or a batch.
func addRowBias(data, bias []float32, rowLen int) {
	for r, b := range bias {
		row := data[r*rowLen : (r+1)*rowLen]
		for i := range row {
			row[i] += b
		}
	}
}

// Layer is one stage of a feed-forward network.
//
// Forward consumes the previous layer's output and returns this layer's
// output; the returned tensor is owned by the layer and is overwritten on the
// next call. Backward consumes the gradient of the loss with respect to the
// layer's output and returns the gradient with respect to its input,
// accumulating parameter gradients along the way.
type Layer interface {
	Name() string
	OutShape(in []int) ([]int, error)
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// clone returns a copy sharing parameter values, but not scratch or
	// gradient accumulators, so the copy can run beside the original.
	clone() Layer
}

// paramGrader is a layer that can accumulate its parameter gradients without
// computing its input gradient, which nothing reads for a network's first
// layer.
type paramGrader interface {
	accumulateGrads(dy *tensor.Tensor)
}

// MaxPool2 is a 2×2 max pooling layer with stride 2 over a CHW input. Odd
// trailing rows/columns are dropped (floor semantics), matching common
// framework defaults. Each window keeps the first strictly greatest of its
// values in the order (0,0), (0,1), (1,0), (1,1), and Backward routes the
// window's gradient there. In a network, a MaxPool2 that closes a Conv2D →
// ReLU → MaxPool2 block runs as part of that block's pass (convBlock), which
// pools and routes by the same rule; these methods serve a MaxPool2 on its
// own.
type MaxPool2 struct {
	argmax []int32
	out    *tensor.Tensor
	dx     *tensor.Tensor
	inShp  [3]int
}

// NewMaxPool2 creates a 2×2/stride-2 max pooling layer.
func NewMaxPool2() *MaxPool2 { return &MaxPool2{} }

// Name implements Layer.
func (p *MaxPool2) Name() string { return "maxpool2" }

// OutShape implements Layer.
func (p *MaxPool2) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: maxpool input must be CHW, got %v", in)
	}
	if in[1] < 2 || in[2] < 2 {
		return nil, fmt.Errorf("nn: maxpool input %v too small", in)
	}
	return []int{in[0], in[1] / 2, in[2] / 2}, nil
}

// Forward implements Layer.
func (p *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	if p.out == nil || p.inShp != [3]int{ch, h, w} {
		p.out = tensor.New(ch, oh, ow)
		p.dx = tensor.New(ch, h, w)
		p.argmax = make([]int32, ch*oh*ow)
		p.inShp = [3]int{ch, h, w}
	}
	xd, od := x.Data, p.out.Data
	idx := 0
	for c := 0; c < ch; c++ {
		base := c * h * w
		for oy := 0; oy < oh; oy++ {
			r0 := base + (2*oy)*w
			r1 := r0 + w
			for ox := 0; ox < ow; ox++ {
				i0 := r0 + 2*ox
				best, bestIdx := xd[i0], int32(i0)
				if v := xd[i0+1]; v > best {
					best, bestIdx = v, int32(i0+1)
				}
				i1 := r1 + 2*ox
				if v := xd[i1]; v > best {
					best, bestIdx = v, int32(i1)
				}
				if v := xd[i1+1]; v > best {
					best, bestIdx = v, int32(i1+1)
				}
				od[idx] = best
				p.argmax[idx] = bestIdx
				idx++
			}
		}
	}
	return p.out
}

// Backward implements Layer.
func (p *MaxPool2) Backward(dy *tensor.Tensor) *tensor.Tensor {
	p.dx.Zero()
	dxd := p.dx.Data
	for i, v := range dy.Data {
		dxd[p.argmax[i]] += v
	}
	return p.dx
}

// Params implements Layer.
func (p *MaxPool2) Params() []*Param { return nil }

func (p *MaxPool2) clone() Layer { return &MaxPool2{} }

// ReLU is an elementwise max(0,x) activation. In a network, the ReLU of a
// Conv2D → ReLU → MaxPool2 block runs inside the block's pass (convBlock);
// the one between dense layers runs as itself.
type ReLU struct {
	out *tensor.Tensor
	dx  *tensor.Tensor
	x   *tensor.Tensor
}

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	if r.out == nil || !r.out.SameShape(x) {
		r.out = tensor.New(x.Shape...)
		r.dx = tensor.New(x.Shape...)
	}
	r.x = x
	od := r.out.Data
	for i, v := range x.Data {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return r.out
}

// forwardBatch implements batchStage for the ReLU between the dense layers.
// ReLU is elementwise, so the batch layout passes through untouched; it
// rectifies in place (the upstream layer's scratch is dead once consumed)
// with a branchless max, since activations have random signs and a
// compare-and-branch mispredicts half the time. For finite values max(v, 0)
// is bit-identical to the branchy Forward: positives pass through,
// negatives and ±0 become +0.
func (r *ReLU) forwardBatch(x *tensor.Tensor) *tensor.Tensor {
	xd := x.Data
	for i, v := range xd {
		xd[i] = max(v, 0)
	}
	return x
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dxd := r.dx.Data
	xd := r.x.Data
	for i, v := range dy.Data {
		if xd[i] > 0 {
			dxd[i] = v
		} else {
			dxd[i] = 0
		}
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) clone() Layer { return &ReLU{} }

// Flatten reshapes a CHW tensor into a vector. It shares data with its input
// on the forward pass and with the incoming gradient on the backward pass.
type Flatten struct {
	inShape []int
	bout    *tensor.Tensor // batch scratch [C·H·W, B]
}

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}, nil
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = x.Shape
	return x.Reshape(x.Len())
}

// forwardBatch implements batchStage: the channel-major [C, B, H, W] batch
// is transposed into the [C·H·W, B] matrix the dense stage consumes, with
// row r = c·H·W + i ordered exactly like the single-sample flattened vector
// so column s is sample s's Forward output. This is the only place the
// batched pipeline moves data between layouts.
func (f *Flatten) forwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: flatten batch input must be [C B H W], got %v", x.Shape))
	}
	ch, bsz, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	if f.bout == nil {
		f.bout = &tensor.Tensor{}
	}
	f.bout.EnsureShape(ch*hw, bsz)
	xd, od := x.Data, f.bout.Data
	for c := 0; c < ch; c++ {
		for s := 0; s < bsz; s++ {
			src := xd[(c*bsz+s)*hw : (c*bsz+s+1)*hw]
			di := c*hw*bsz + s
			for _, v := range src {
				od[di] = v
				di += bsz
			}
		}
	}
	return f.bout
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

func (f *Flatten) clone() Layer { return &Flatten{} }

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

// NewDense creates a fully connected layer mapping in features to out.
func NewDense(in, out int) *Dense {
	return &Dense{In: in, Out: out, W: newParam(out, in), B: newParam(out)}
}

// Init initializes weights with Glorot-uniform scaling using rng.
func (d *Dense) Init(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(d.In+d.Out))
	d.W.Value.RandomizeUniform(rng, limit)
	d.B.Value.Zero()
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) ([]int, error) {
	n := 1
	for _, dim := range in {
		n *= dim
	}
	if n != d.In {
		return nil, fmt.Errorf("nn: dense expects %d inputs, got %v (=%d)", d.In, in, n)
	}
	return []int{d.Out}, nil
}

// Forward implements Layer: forwardBatch over a batch of one, so a sample's
// output has the same bits alone or in a batch.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Len() != d.In {
		panic(fmt.Sprintf("nn: dense input has %d values, want %d", x.Len(), d.In))
	}
	d.x = x
	d.xcol.Shape = append(d.xcol.Shape[:0], d.In, 1)
	d.xcol.Data = x.Data
	d.out.Shape = append(d.out.Shape[:0], d.Out)
	d.out.Data = d.forwardBatch(&d.xcol).Data
	return &d.out
}

// forwardBatch implements batchStage: the whole batch is one [Out, In]·[In, B]
// GEMM plus a bias broadcast. Each output is a dot product that starts at +0
// and sums over the inputs in order, then adds the bias (see tensor.Gemm),
// whatever B is.
func (d *Dense) forwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Shape[0] != d.In {
		panic(fmt.Sprintf("nn: dense batch input must be [%d B], got %v", d.In, x.Shape))
	}
	bsz := x.Shape[1]
	d.bout.EnsureShape(d.Out, bsz)
	tensor.Gemm(&d.bout, d.W.Value, x)
	addRowBias(d.bout.Data, d.B.Value.Data, bsz)
	return &d.bout
}

// Backward implements Layer. Both gradient updates are row axpys, so each
// element takes g·v once per output o, in increasing o. The input-gradient
// scratch is allocated on the first call, so a first layer (see
// Network.Backward) never holds it.
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

// accumulateGrads implements paramGrader. Each gradient element takes one
// product per call.
func (d *Dense) accumulateGrads(dy *tensor.Tensor) {
	gw, gb := d.W.grad().Data, d.B.grad().Data
	for o, g := range dy.Data {
		gb[o] += g
		tensor.Axpy(gw[o*d.In:(o+1)*d.In], d.x.Data, g)
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

func (d *Dense) clone() Layer {
	return &Dense{In: d.In, Out: d.Out, W: d.W.shareValue(), B: d.B.shareValue()}
}

package nn

import (
	"tahoma/internal/tensor"
)

// refNet is the layer walk a network ran before its Conv2D → ReLU →
// MaxPool2 blocks became single implicit-GEMM passes, kept as the oracle the
// plan is held to bit for bit. Every layer runs on its own: the conv as
// im2col, an i,k,j GEMM that skips zero weights, and a bias broadcast; its
// weight gradient as dY·colᵀ, one dot product per element over the explicit
// columns; its input gradient as Wᵀ·dY, again skipping zero weights, then
// tensor.Col2Im; a dense layer as plain dot products. ReLU, MaxPool2 and
// Flatten run their own (standalone) methods. It shares the network's
// parameters, gradient accumulators included, and nothing else.
type refNet struct{ layers []refLayer }

type refLayer interface {
	forward(x *tensor.Tensor) *tensor.Tensor
	backward(dy *tensor.Tensor) *tensor.Tensor
}

func newRefNet(n *Network) *refNet {
	r := &refNet{}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			r.layers = append(r.layers, &refConv{c: v})
		case *Dense:
			r.layers = append(r.layers, &refDense{d: v})
		default:
			r.layers = append(r.layers, refOwn{l.clone()})
		}
	}
	return r
}

// forward returns the logit.
func (r *refNet) forward(x *tensor.Tensor) float32 {
	for _, l := range r.layers {
		x = l.forward(x)
	}
	return x.Data[0]
}

// backward walks every layer, accumulating parameter gradients, and returns
// the gradient with respect to the input.
func (r *refNet) backward(dlogit float32) *tensor.Tensor {
	g := tensor.NewFrom([]float32{dlogit}, 1)
	for i := len(r.layers) - 1; i >= 0; i-- {
		g = r.layers[i].backward(g)
	}
	return g
}

// refOwn runs a parameterless layer's own Forward and Backward.
type refOwn struct{ l Layer }

func (o refOwn) forward(x *tensor.Tensor) *tensor.Tensor   { return o.l.Forward(x) }
func (o refOwn) backward(dy *tensor.Tensor) *tensor.Tensor { return o.l.Backward(dy) }

// refConv is Conv2D over im2col columns.
type refConv struct {
	c   *Conv2D
	g   tensor.ConvGeom
	col *tensor.Tensor
}

func (r *refConv) forward(x *tensor.Tensor) *tensor.Tensor {
	c := r.c
	r.g = c.geom(x.Shape[1], x.Shape[2])
	cols := r.g.ColCols()
	r.col = tensor.New(r.g.ColRows(), cols)
	refIm2Col(r.col, x, r.g)
	out := tensor.New(c.OutC, r.g.OutH(), r.g.OutW())
	refMatMul(out.Reshape(c.OutC, cols), c.W.Value, r.col)
	for f, b := range c.B.Value.Data {
		row := out.Data[f*cols : (f+1)*cols]
		for i := range row {
			row[i] += b
		}
	}
	return out
}

func (r *refConv) backward(dy *tensor.Tensor) *tensor.Tensor {
	c := r.c
	cols := r.g.ColCols()
	dy2 := dy.Reshape(c.OutC, cols)
	refMatMulAddTransB(c.W.grad(), dy2, r.col)
	gb := c.B.grad().Data
	for f := range gb {
		var s float32
		for _, v := range dy.Data[f*cols : (f+1)*cols] {
			s += v
		}
		gb[f] += s
	}
	dcol := tensor.New(r.g.ColRows(), cols)
	refMatMulTransA(dcol, c.W.Value, dy2)
	dx := tensor.New(c.InC, r.g.InH, r.g.InW)
	tensor.Col2Im(dx, dcol, r.g)
	return dx
}

// refDense is Dense as one dot product per output, the bias added last.
type refDense struct {
	d *Dense
	x *tensor.Tensor
}

func (r *refDense) forward(x *tensor.Tensor) *tensor.Tensor {
	d := r.d
	r.x = x
	out := tensor.New(d.Out)
	for o := range out.Data {
		var s float32
		for i, v := range d.W.Value.Data[o*d.In : (o+1)*d.In] {
			s += float32(v * x.Data[i])
		}
		out.Data[o] = s + d.B.Value.Data[o]
	}
	return out
}

func (r *refDense) backward(dy *tensor.Tensor) *tensor.Tensor {
	d := r.d
	dx := refDenseBackward(d, r.x, dy, d.W.grad().Data, d.B.grad().Data)
	return tensor.NewFrom(dx, d.In)
}

// refIm2Col unrolls a CHW input into [C·KH·KW, OutH·OutW] columns, one
// element at a time, zero outside the input.
func refIm2Col(col, x *tensor.Tensor, g tensor.ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	i := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*g.StrideH-g.PadH+kh, ox*g.StrideW-g.PadW+kw
						col.Data[i] = 0
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							col.Data[i] = x.Data[(c*g.InH+iy)*g.InW+ix]
						}
						i++
					}
				}
			}
		}
	}
}

// refMatMul computes C = A·B with i,k,j row updates from +0, skipping zero
// A elements.
func refMatMul(c, a, b *tensor.Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		clear(ci)
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j, bv := range b.Data[p*n : (p+1)*n] {
				ci[j] += float32(av * bv)
			}
		}
	}
}

// refMatMulAddTransB computes C += A·Bᵀ: each element one dot product from
// +0, added once.
func refMatMulAddTransB(c, a, b *tensor.Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s float32
			for p, bv := range b.Data[j*k : (j+1)*k] {
				s += float32(ai[p] * bv)
			}
			c.Data[i*n+j] += s
		}
	}
}

// refMatMulTransA computes C = Aᵀ·B with row updates over p from +0,
// skipping zero A elements.
func refMatMulTransA(c, a, b *tensor.Tensor) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	clear(c.Data)
	for p := 0; p < k; p++ {
		for i, av := range a.Data[p*m : (p+1)*m] {
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j, bv := range b.Data[p*n : (p+1)*n] {
				ci[j] += float32(av * bv)
			}
		}
	}
}

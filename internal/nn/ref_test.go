package nn

import (
	"testing"

	"tahoma/internal/tensor"
)

// refNet is the layer walk a network ran before its conv → ReLU → 2×2
// max-pool blocks became single implicit-GEMM passes, kept as the oracle
// the network is held to bit for bit. Every layer runs on its own: the conv
// as im2col, an i,k,j GEMM that skips zero weights, and a bias broadcast;
// its weight gradient as dY·colᵀ, one dot product per element over the
// explicit columns; its input gradient as Wᵀ·dY, again skipping zero
// weights, then tensor.Col2Im; the ReLU and the pool as refReLU and
// refPool; a dense layer as plain dot products. It shares the network's
// parameters, gradient accumulators included, and nothing else.
type refNet struct {
	blocks      []refStage
	hidden, out *refDense
	relu        refReLU
}

// refStage is one conv block as three layers.
type refStage struct {
	conv *refConv
	relu refReLU
	pool refPool
}

func newRefNet(n *Network) *refNet {
	r := &refNet{hidden: &refDense{d: n.hidden}, out: &refDense{d: n.out}}
	for _, b := range n.blocks {
		r.blocks = append(r.blocks, refStage{conv: &refConv{c: b.conv}})
	}
	return r
}

// forward returns the logit.
func (r *refNet) forward(x *tensor.Tensor) float32 {
	for i := range r.blocks {
		b := &r.blocks[i]
		x = b.pool.forward(b.relu.forward(b.conv.forward(x)))
	}
	return r.out.forward(r.relu.forward(r.hidden.forward(x))).Data[0]
}

// backward walks every layer, accumulating parameter gradients, and returns
// the gradient with respect to the input.
func (r *refNet) backward(dlogit float32) *tensor.Tensor {
	g := r.hidden.backward(r.relu.backward(r.out.backward(tensor.NewFrom([]float32{dlogit}, 1))))
	for i := len(r.blocks) - 1; i >= 0; i-- {
		b := &r.blocks[i]
		g = b.conv.backward(b.relu.backward(b.pool.backward(g)))
	}
	return g
}

// refPool is 2×2 max pooling with stride 2 over a CHW input. Odd trailing
// rows/columns are dropped (floor semantics), matching common framework
// defaults. Each window keeps the first strictly greatest of its values in
// the order (0,0), (0,1), (1,0), (1,1), and backward routes the window's
// gradient there: the rule the conv block's epilogue and route follow.
type refPool struct {
	argmax []int32
	out    *tensor.Tensor
	dx     *tensor.Tensor
	inShp  [3]int
}

func (p *refPool) forward(x *tensor.Tensor) *tensor.Tensor {
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

func (p *refPool) backward(dy *tensor.Tensor) *tensor.Tensor {
	p.dx.Zero()
	dxd := p.dx.Data
	for i, v := range dy.Data {
		dxd[p.argmax[i]] += v
	}
	return p.dx
}

// refReLU is an elementwise max(0,x) activation into its own buffer.
type refReLU struct {
	out *tensor.Tensor
	dx  *tensor.Tensor
	x   *tensor.Tensor
}

func (r *refReLU) forward(x *tensor.Tensor) *tensor.Tensor {
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

func (r *refReLU) backward(dy *tensor.Tensor) *tensor.Tensor {
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

func TestMaxPoolForwardBackward(t *testing.T) {
	p := &refPool{}
	x := tensor.NewFrom([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 1, 1,
	}, 1, 4, 4)
	out := p.forward(x)
	want := []float32{4, 8, 9, 3}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	dy := tensor.NewFrom([]float32{10, 20, 30, 40}, 1, 2, 2)
	dx := p.backward(dy)
	// Gradient goes only to the argmax positions.
	if dx.Data[5] != 10 || dx.Data[7] != 20 || dx.Data[8] != 30 || dx.Data[11] != 40 {
		t.Fatalf("pool backward wrong: %v", dx.Data)
	}
	var sum float32
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("pool backward lost gradient mass: %v", sum)
	}
}

func TestReLU(t *testing.T) {
	r := &refReLU{}
	x := tensor.NewFrom([]float32{-1, 0, 2}, 3)
	out := r.forward(x)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Fatalf("relu forward: %v", out.Data)
	}
	dy := tensor.NewFrom([]float32{5, 5, 5}, 3)
	dx := r.backward(dy)
	if dx.Data[0] != 0 || dx.Data[1] != 0 || dx.Data[2] != 5 {
		t.Fatalf("relu backward: %v", dx.Data)
	}
}

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

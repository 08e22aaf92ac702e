package nn

import (
	"math"
	"math/rand"

	"tahoma/internal/tensor"
)

// Conv2D is the convolution of a conv block: stride 1, "same" padding
// (pad = kernel/2) over a CHW input. Weights are stored as [outC,
// inC*KH*KW], each filter's taps in im2col row order (c, kh, kw).
type Conv2D struct {
	InC, OutC int
	K         int // kernel size (square, odd)

	W *Param
	B *Param
}

// newConv2D creates a conv with inC input channels, outC filters and a
// square k×k kernel; NewNetwork has checked that k is odd and positive.
func newConv2D(inC, outC, k int) *Conv2D {
	return &Conv2D{InC: inC, OutC: outC, K: k, W: newParam(outC, inC*k*k), B: newParam(outC)}
}

// Init initializes weights with He-uniform scaling using rng.
func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.InC * c.K * c.K)
	limit := math.Sqrt(6.0 / fanIn)
	c.W.Value.RandomizeUniform(rng, limit)
	c.B.Value.Zero()
}

// geom is the conv's geometry over an h×w input, the form Col2Im takes.
func (c *Conv2D) geom(h, w int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: c.InC, InH: h, InW: w,
		KH: c.K, KW: c.K,
		StrideH: 1, StrideW: 1,
		PadH: c.K / 2, PadW: c.K / 2,
	}
}

// clone returns a conv sharing c's parameter values, with its own gradient
// accumulators.
func (c *Conv2D) clone() *Conv2D {
	return &Conv2D{InC: c.InC, OutC: c.OutC, K: c.K, W: c.W.shareValue(), B: c.B.shareValue()}
}

// convPass is a convolution's implicit-GEMM working set over B channel-major
// samples ([InC, B, H, W], B = 1 for Network.Forward): the zero-padded input planes
// and the tap shifts into them. Each plane is padded to (H+K-1)·(W+K-1) with
// row width pw = W+K-1, and one channel's planes for all B samples are
// contiguous (span = B·plane), so the im2col row of tap (c,kh,kw) is pad
// shifted by c·span + kh·pw + kw. tensor.ConvTaps sums each filter's taps
// over padded coordinates: sum j sits at the padded top-left corner of its
// window, so output (y, x) of sample s is sum s·plane + y·pw + x, and the
// sums of windows that start in a right or bottom border are computed and
// never read. The weight gradient reads the same shifted views
// (tensor.ConvTapGrads), so neither direction builds a column matrix.
type convPass struct {
	pad       tensor.Tensor // [InC·B·plane]
	offs      []int         // tap shifts into pad, in im2col row order
	h, w      int           // input geometry of the last load
	pw, plane int
	n         int // sums per filter
}

// load pads the channel-major batch x of bsz h×w samples and sets the tap
// shifts.
func (p *convPass) load(c *Conv2D, x []float32, bsz, h, w int) {
	k, pd := c.K, c.K/2
	if h != p.h || w != p.w {
		// Only interiors are written below, and another geometry's
		// interiors overlap this one's borders.
		clear(p.pad.Data[:cap(p.pad.Data)])
		p.h, p.w = h, w
		p.pw = w + k - 1
		p.plane = (h + k - 1) * p.pw
	}
	span := bsz * p.plane
	// Plane (ci, s) is at index ci·B+s in both layouts. Planes start at
	// multiples of plane whatever the batch size, so a reused buffer's
	// borders are still the zeros it was cleared or allocated with.
	p.pad.EnsureShape(c.InC * span)
	for pl := 0; pl < c.InC*bsz; pl++ {
		src := x[pl*h*w : (pl+1)*h*w]
		dst := p.pad.Data[pl*p.plane+pd*p.pw+pd:]
		for y := 0; y < h; y++ {
			copy(dst[y*p.pw:y*p.pw+w], src[y*w:(y+1)*w])
		}
	}
	p.offs = p.offs[:0]
	for ci := 0; ci < c.InC; ci++ {
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				p.offs = append(p.offs, ci*span+kh*p.pw+kw)
			}
		}
	}
	// The last tap's window must end inside pad; the positions this drops
	// are all past the last sample's last output.
	p.n = span - (k-1)*p.pw - (k - 1)
}

// sums writes filter f's raw sums (no bias) over the loaded batch into acc,
// which holds p.n values.
func (p *convPass) sums(c *Conv2D, f int, acc []float32) {
	taps := len(p.offs)
	tensor.ConvTaps(acc, c.W.Value.Data[f*taps:(f+1)*taps], p.pad.Data, p.offs)
}

// convGrads is a conv's backward scratch. The gradient of the conv output
// is held sparse: filter f's entries are g[at[f]:at[f+1]], at the padded
// input shifts pos[at[f]:at[f+1]] of their output positions, in output
// order.
type convGrads struct {
	g    []float32
	pos  []int
	at   []int          // OutC+1 bounds into g and pos
	bg   []float32      // route's staging of one pooled row's
	bpos []int          // bottom-row entries, see route
	wt   tensor.Tensor  // Wᵀ [taps, OutC]
	dcol tensor.Tensor  // Wᵀ·dY [taps, H·W]
	dx   *tensor.Tensor // [InC, H, W]; nil until the first input gradient
}

// reset empties s's sparse form and sizes g and pos to n entries, the most
// it can hold.
func (s *convGrads) reset(n int) {
	if cap(s.g) < n {
		s.g, s.pos = make([]float32, n), make([]int, n)
	}
	s.g, s.pos = s.g[:n], s.pos[:n]
	s.at = s.at[:0]
}

// convBlock is one conv → ReLU → 2×2 max-pool stage of the template in one
// pass: the conv's implicit GEMM (convPass) with a pooling epilogue.
// Network.Forward runs it on one sample, ForwardBatch on a chunk; the sums
// and the epilogue are the same code at every batch size. Per filter,
// tensor.ConvTaps writes the raw sums, and tensor.PoolBiasReLU (one call per
// pooled row) pools each 2×2 window of them, then adds the bias and
// rectifies, writing [OutC, B, H/2, W/2] directly. Odd sizes drop their last
// row and column.
//
// The sums are bit-identical to im2col followed by a GEMM: the same
// products in the same order from a +0 start. Pooling before the bias and
// ReLU is bit-identical to bias → ReLU → pool because v ↦ max(fl(v+b), 0) is
// monotone non-decreasing for finite v, so it commutes with max, and its
// results are never −0, so equal values have equal bits — whichever of a
// tied ±0 pair the pool kept.
//
// Backward works from what a kept run leaves: the padded input and every
// filter's raw sums (ForwardBatch's runs keep one filter's at a time and
// nothing for Backward). route rebuilds the pool's and the ReLU's backward
// from the sums, and accumulate and inputGrad take the conv's.
type convBlock struct {
	conv  *Conv2D
	pass  convPass
	acc   tensor.Tensor // raw sums: every filter's after a kept run, else one filter's
	out   tensor.Tensor // [OutC, B, H/2, W/2]
	dc    tensor.Tensor // the conv output's gradient [OutC, H·W]
	grads convGrads
}

// run is the block's pass over a channel-major batch of bsz h×w samples.
// With keep, acc holds every filter's sums afterwards (filter f's at f·n),
// for Backward.
func (b *convBlock) run(x []float32, bsz, h, w int, keep bool) {
	c, p := b.conv, &b.pass
	p.load(c, x, bsz, h, w)
	n := p.n
	if keep {
		b.acc.EnsureShape(c.OutC * n)
	} else {
		b.acc.EnsureShape(n)
	}
	oh, ow := h/2, w/2
	b.out.EnsureShape(c.OutC, bsz, oh, ow)
	od := b.out.Data
	i := 0
	for f := 0; f < c.OutC; f++ {
		acc := b.acc.Data[:n]
		if keep {
			acc = b.acc.Data[f*n : (f+1)*n]
		}
		p.sums(c, f, acc)
		bias := c.B.Value.Data[f]
		for s := 0; s < bsz; s++ {
			for oy := 0; oy < oh; oy++ {
				r0 := acc[s*p.plane+2*oy*p.pw:]
				tensor.PoolBiasReLU(od[i:i+ow], r0, r0[p.pw:], bias)
				i += ow
			}
		}
	}
}

// Backward takes the gradient of the pooled activations [OutC, H/2, W/2]
// of the last kept run, accumulates the conv's parameter gradients and
// returns the gradient of the block's input.
func (b *convBlock) Backward(dy *tensor.Tensor) *tensor.Tensor {
	b.route(dy, true)
	b.accumulate()
	return b.inputGrad()
}

// accumulateGrads is Backward without the input gradient, which nothing
// reads for a network's first block.
func (b *convBlock) accumulateGrads(dy *tensor.Tensor) {
	b.route(dy, false)
	b.accumulate()
}

// accumulate adds one sample's parameter gradients from the sparse output
// gradient route left and the padded input the output came from: per
// filter, dB += the sum of its gradient entries and dW += dY·colᵀ
// (tensor.ConvTapGrads), both over the entries in output order. Each
// gradient element takes one addition per call, of a sum that starts at +0
// and runs over the filter's output gradient row in im2col column order. The
// zero entries the sparse form leaves out would add ±0 products, which
// change no bits (see ConvTapGrads); a pooled conv's output gradient is at
// least three-quarters zeros.
func (b *convBlock) accumulate() {
	c, p, s := b.conv, &b.pass, &b.grads
	taps := len(p.offs)
	gw, gb := c.W.grad().Data, c.B.grad().Data
	for f := 0; f < c.OutC; f++ {
		g, pos := s.g[s.at[f]:s.at[f+1]], s.pos[s.at[f]:s.at[f+1]]
		var sum float32
		for _, v := range g {
			sum += v
		}
		gb[f] += sum
		tensor.ConvTapGrads(gw[f*taps:(f+1)*taps], g, pos, p.pad.Data, p.offs)
	}
}

// inputGrad returns the gradient of the block's input from b.dc, the
// gradient of the conv output [OutC, H·W]: dcol = Wᵀ·dY on tensor.Gemm,
// each element a sum over the filters in order from +0, then Col2Im's
// scatter in its tap order. Its scratch is allocated on the first call, so
// a first block (see Network.Backward) never holds it.
func (b *convBlock) inputGrad() *tensor.Tensor {
	c, p, s := b.conv, &b.pass, &b.grads
	taps := len(p.offs)
	s.wt.EnsureShape(taps, c.OutC)
	wd, wt := c.W.Value.Data, s.wt.Data
	for f := 0; f < c.OutC; f++ {
		for t, v := range wd[f*taps : (f+1)*taps] {
			wt[t*c.OutC+f] = v
		}
	}
	s.dcol.EnsureShape(taps, p.h*p.w)
	tensor.Gemm(&s.dcol, &s.wt, &b.dc)
	if s.dx == nil || s.dx.Shape[1] != p.h || s.dx.Shape[2] != p.w {
		s.dx = tensor.New(c.InC, p.h, p.w)
	}
	tensor.Col2Im(s.dx, &s.dcol, c.geom(p.h, p.w))
	return s.dx
}

// route is the pool's backward then the ReLU's, rebuilt from the raw sums
// the last kept run left: it fills b.grads' sparse form of the conv output's gradient,
// and with dense, b.dc with the same gradient [OutC, H·W]. Each window's
// activations are r = max(fl(sum+b), 0), the values the pool compared; its
// gradient goes to the first strictly greatest of them in the order (0,0),
// (0,1), (1,0), (1,1), the pool's argmax, and only if that value is
// positive, ReLU's mask there. Everything else, odd trailing rows and
// columns included, gets zero.
//
// The walk has no data-dependent branch, because activations have random
// signs and a branch on them mispredicts: for finite sums the bits of
// fl(sum+b), read as an int32, order like the values where the value is
// positive and are ≤ 0 where it is not (−0 included), so max(bits, 0)
// orders like r and the argmax is integer selects. A window routing to the
// top row of its pair is written to the sparse form at once, one routing to
// the bottom row is staged, and the staged entries follow the pooled row's
// top-row ones, which keeps the sparse form in output order.
func (b *convBlock) route(dy *tensor.Tensor, dense bool) {
	c, p, s := b.conv, &b.pass, &b.grads
	h, w, pw, n := p.h, p.w, p.pw, p.n
	oh, ow := h/2, w/2
	s.reset(c.OutC * oh * ow)
	if cap(s.bpos) < ow {
		s.bg, s.bpos = make([]float32, ow), make([]int, ow)
	}
	if dense {
		b.dc.EnsureShape(c.OutC, h*w)
		clear(b.dc.Data)
	}
	gs, ps, bg, bpos := s.g, s.pos, s.bg[:ow], s.bpos[:ow]
	m := 0
	for f := 0; f < c.OutC; f++ {
		s.at = append(s.at, m)
		acc := b.acc.Data[f*n : (f+1)*n]
		bias := c.B.Value.Data[f]
		for oy := 0; oy < oh; oy++ {
			top := 2 * oy * pw
			r0, r1 := acc[top:top+2*ow], acc[top+pw:top+pw+2*ow]
			m0, nb := m, 0
			for ox, gv := range dy.Data[(f*oh+oy)*ow : (f*oh+oy+1)*ow] {
				best, k := reluBits(r0[2*ox]+bias), 0
				if v := reluBits(r0[2*ox+1] + bias); v > best {
					best, k = v, 1
				}
				if v := reluBits(r1[2*ox] + bias); v > best {
					best, k = v, 2
				}
				if v := reluBits(r1[2*ox+1] + bias); v > best {
					best, k = v, 3
				}
				on := int(uint32(-best) >> 31) // best > 0: ReLU's mask
				row := k >> 1
				at := top + row*pw + 2*ox + k&1
				gs[m], ps[m] = gv, at
				m += on &^ row
				bg[nb], bpos[nb] = gv, at
				nb += on & row
			}
			copy(gs[m:], bg[:nb])
			copy(ps[m:], bpos[:nb])
			if dense {
				// Padded position top+row·pw+x is unpadded (2·oy+row)·w+x.
				dc := b.dc.Data[f*h*w:]
				for e, at := range ps[m0:m] {
					dc[at-2*oy*(pw-w)] = gs[m0+e]
				}
				for e, at := range bpos[:nb] {
					dc[at-(2*oy+1)*(pw-w)] = bg[e]
				}
			}
			m += nb
		}
	}
	s.at = append(s.at, m)
}

// reluBits is max(bits of v as an int32, 0): for finite v it orders like
// max(v, 0), and is 0 exactly where max(v, 0) is.
func reluBits(v float32) int32 { return max(int32(math.Float32bits(v)), 0) }

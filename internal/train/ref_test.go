package train

import (
	"math"

	"tahoma/internal/nn"
	"tahoma/internal/tensor"
)

// refWalk is the layer walk a network ran before its conv → ReLU → 2×2
// max-pool blocks became single implicit-GEMM passes, written out as direct
// loops over the template's layers, so fit is held to arithmetic it does
// not share. It reads nothing of the network but its parameters, in
// Network.Params order: each conv block's weights and bias, then the hidden
// and the output dense layer's. Each conv output is a dot product over the
// taps in im2col order (c, kh, kw) from +0, plus the bias; taps in the zero
// padding are skipped, since their products are ±0 and a sum that starts at
// +0 is never −0, so adding them changes no bits. ReLU rectifies, the pool
// keeps the first strictly greatest value of a window in the order (0,0),
// (0,1), (1,0), (1,1), and a dense output is a dot product plus the bias.
// Backward walks every layer and adds each gradient element's per-sample
// term once: a conv's dW as a dot product over output positions in order,
// its dB as a row sum, its input gradient as Σ_f W·dY per tap and position,
// scattered in (tap, position) order; a dense layer's gradients as single
// products.
type refWalk struct {
	layers []refLayer
	ins    []*tensor.Tensor // each layer's input in the last forward
	taps   [][][]refTap     // per conv layer: each output position's taps
}

// refLayer is one layer of the template: a conv or dense layer with its
// weights [out, taps or in] and bias, a ReLU, or a 2×2 max-pool.
type refLayer struct {
	kind int
	w, b *nn.Param
}

const (
	convLayer = iota
	reluLayer
	poolLayer
	denseLayer
)

func newRefWalk(net *nn.Network) *refWalk {
	ps := net.Params()
	var layers []refLayer
	for i := 0; i+4 < len(ps); i += 2 {
		layers = append(layers, refLayer{convLayer, ps[i], ps[i+1]}, refLayer{kind: reluLayer}, refLayer{kind: poolLayer})
	}
	n := len(ps)
	layers = append(layers, refLayer{denseLayer, ps[n-4], ps[n-3]}, refLayer{kind: reluLayer}, refLayer{denseLayer, ps[n-2], ps[n-1]})
	return &refWalk{layers: layers, ins: make([]*tensor.Tensor, len(layers)), taps: make([][][]refTap, len(layers))}
}

func (r *refWalk) forward(x *tensor.Tensor) float32 {
	for i, l := range r.layers {
		r.ins[i] = x
		var out *tensor.Tensor
		switch l.kind {
		case convLayer:
			c, taps := l.w.Value.Shape[0], l.w.Value.Shape[1]
			if r.taps[i] == nil {
				r.taps[i] = refConvTaps(x.Shape[0], taps, x.Shape[1], x.Shape[2])
			}
			hw := x.Shape[1] * x.Shape[2]
			out = tensor.New(c, x.Shape[1], x.Shape[2])
			for f := 0; f < c; f++ {
				for j, tj := range r.taps[i] {
					var s float32
					for _, tp := range tj {
						s += float32(l.w.Value.Data[f*taps+tp.t] * x.Data[tp.i])
					}
					out.Data[f*hw+j] = s + l.b.Value.Data[f]
				}
			}
		case reluLayer:
			out = tensor.New(x.Shape...)
			for j, u := range x.Data {
				if u > 0 {
					out.Data[j] = u
				}
			}
		case poolLayer:
			c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
			out = tensor.New(c, h/2, w/2)
			for j := range out.Data {
				out.Data[j] = x.Data[refArgmax(x, j)]
			}
		case denseLayer:
			in := l.w.Value.Shape[1]
			out = tensor.New(l.w.Value.Shape[0])
			for o := range out.Data {
				var s float32
				for j, u := range l.w.Value.Data[o*in : (o+1)*in] {
					s += float32(u * x.Data[j])
				}
				out.Data[o] = s + l.b.Value.Data[o]
			}
		}
		x = out
	}
	return x.Data[0]
}

func (r *refWalk) backward(dlogit float32) {
	g := []float32{dlogit}
	for i := len(r.layers) - 1; i >= 0; i-- {
		x := r.ins[i]
		dx := make([]float32, x.Len())
		l := r.layers[i]
		switch l.kind {
		case convLayer:
			c, taps := l.w.Value.Shape[0], l.w.Value.Shape[1]
			hw := x.Shape[1] * x.Shape[2]
			for f := 0; f < c; f++ {
				var db float32
				dw := make([]float32, taps)
				for j, tj := range r.taps[i] {
					gv := g[f*hw+j]
					db += gv
					for _, tp := range tj {
						dw[tp.t] += float32(gv * x.Data[tp.i])
					}
				}
				l.b.Grad.Data[f] += db
				for t, s := range dw {
					l.w.Grad.Data[f*taps+t] += s
				}
			}
			// Wᵀ·dY per tap and position, then the scatter in (tap,
			// position) order.
			dcol, at := make([]float32, taps*hw), make([]int, taps*hw)
			for j := range at {
				at[j] = -1
			}
			for j, tj := range r.taps[i] {
				for _, tp := range tj {
					var s float32
					for f := 0; f < c; f++ {
						s += float32(l.w.Value.Data[f*taps+tp.t] * g[f*hw+j])
					}
					dcol[tp.t*hw+j], at[tp.t*hw+j] = s, tp.i
				}
			}
			for tj, i := range at {
				if i >= 0 {
					dx[i] += dcol[tj]
				}
			}
		case reluLayer:
			for j, u := range x.Data {
				if u > 0 {
					dx[j] = g[j]
				}
			}
		case poolLayer:
			for j, gv := range g {
				dx[refArgmax(x, j)] += gv
			}
		case denseLayer:
			in := l.w.Value.Shape[1]
			for o, gv := range g {
				l.b.Grad.Data[o] += gv
				for j, u := range l.w.Value.Data[o*in : (o+1)*in] {
					l.w.Grad.Data[o*in+j] += float32(gv * x.Data[j])
					dx[j] += float32(gv * u)
				}
			}
		}
		g = dx
	}
}

// refTap is one in-bounds tap of a conv output: tap index t in im2col
// order and the input element i it reads.
type refTap struct{ t, i int }

// refConvTaps lists, for every output position of a stride-1 "same" conv
// with taps = inC·K·K taps over an inC×h×w input, the taps whose input
// element lies inside the input, in im2col order.
func refConvTaps(inC, taps, h, w int) [][]refTap {
	k := int(math.Sqrt(float64(taps / inC)))
	p := k / 2
	out := make([][]refTap, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t := 0
			for ch := 0; ch < inC; ch++ {
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						iy, ix := y-p+kh, x-p+kw
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							out[y*w+x] = append(out[y*w+x], refTap{t, (ch*h+iy)*w + ix})
						}
						t++
					}
				}
			}
		}
	}
	return out
}

// refArgmax returns the input index MaxPool2 keeps for pooled output j of
// the CHW tensor x.
func refArgmax(x *tensor.Tensor, j int) int {
	h, w := x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	c, oy, ox := j/(oh*ow), j/ow%oh, j%ow
	i0 := (c*h+2*oy)*w + 2*ox
	best := i0
	for _, i := range []int{i0 + 1, i0 + w, i0 + w + 1} {
		if x.Data[i] > x.Data[best] {
			best = i
		}
	}
	return best
}

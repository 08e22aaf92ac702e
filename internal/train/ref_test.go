package train

import (
	"tahoma/internal/nn"
	"tahoma/internal/tensor"
)

// refWalk is the layer walk a network ran before its Conv2D → ReLU →
// MaxPool2 blocks became single implicit-GEMM passes, written out as direct
// loops over the network's layers, so fit is held to arithmetic it does not
// share. Each conv output is a dot product over the taps in im2col order
// (c, kh, kw) from +0, plus the bias; taps in the zero padding are skipped,
// since their products are ±0 and a sum that starts at +0 is never −0, so
// adding them changes no bits. ReLU rectifies, MaxPool2 keeps the first
// strictly greatest value of a window in the order (0,0), (0,1), (1,0), (1,1),
// and a dense output is a dot product plus the bias. Backward walks every
// layer and adds each gradient element's per-sample term once: a conv's dW
// as a dot product over output positions in order, its dB as a row sum, its
// input gradient as Σ_f W·dY per tap and position, scattered in (tap,
// position) order; a dense layer's gradients as single products.
type refWalk struct {
	layers []nn.Layer
	ins    []*tensor.Tensor // each layer's input in the last forward
	taps   [][][]refTap     // per conv layer: each output position's taps
}

func newRefWalk(net *nn.Network) *refWalk {
	n := len(net.Layers)
	return &refWalk{layers: net.Layers, ins: make([]*tensor.Tensor, n), taps: make([][][]refTap, n)}
}

func (r *refWalk) forward(x *tensor.Tensor) float32 {
	for i, l := range r.layers {
		r.ins[i] = x
		var out *tensor.Tensor
		switch v := l.(type) {
		case *nn.Conv2D:
			if r.taps[i] == nil {
				r.taps[i] = refConvTaps(v, x.Shape[1], x.Shape[2])
			}
			c, hw := v.OutC, x.Shape[1]*x.Shape[2]
			taps := len(v.W.Value.Data) / c
			out = tensor.New(c, x.Shape[1], x.Shape[2])
			for f := 0; f < c; f++ {
				for j, tj := range r.taps[i] {
					var s float32
					for _, tp := range tj {
						s += float32(v.W.Value.Data[f*taps+tp.t] * x.Data[tp.i])
					}
					out.Data[f*hw+j] = s + v.B.Value.Data[f]
				}
			}
		case *nn.ReLU:
			out = tensor.New(x.Shape...)
			for j, u := range x.Data {
				if u > 0 {
					out.Data[j] = u
				}
			}
		case *nn.MaxPool2:
			c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
			out = tensor.New(c, h/2, w/2)
			for j := range out.Data {
				out.Data[j] = x.Data[refArgmax(x, j)]
			}
		case *nn.Flatten:
			out = x.Reshape(x.Len())
		case *nn.Dense:
			out = tensor.New(v.Out)
			for o := range out.Data {
				var s float32
				for j, u := range v.W.Value.Data[o*v.In : (o+1)*v.In] {
					s += float32(u * x.Data[j])
				}
				out.Data[o] = s + v.B.Value.Data[o]
			}
		default:
			panic("train: no reference for layer " + l.Name())
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
		switch v := r.layers[i].(type) {
		case *nn.Conv2D:
			c, hw := v.OutC, x.Shape[1]*x.Shape[2]
			taps := len(v.W.Value.Data) / c
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
				v.B.Grad.Data[f] += db
				for t, s := range dw {
					v.W.Grad.Data[f*taps+t] += s
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
						s += float32(v.W.Value.Data[f*taps+tp.t] * g[f*hw+j])
					}
					dcol[tp.t*hw+j], at[tp.t*hw+j] = s, tp.i
				}
			}
			for tj, i := range at {
				if i >= 0 {
					dx[i] += dcol[tj]
				}
			}
		case *nn.ReLU:
			for j, u := range x.Data {
				if u > 0 {
					dx[j] = g[j]
				}
			}
		case *nn.MaxPool2:
			for j, gv := range g {
				dx[refArgmax(x, j)] += gv
			}
		case *nn.Flatten:
			dx = g
		case *nn.Dense:
			for o, gv := range g {
				v.B.Grad.Data[o] += gv
				for j, u := range v.W.Value.Data[o*v.In : (o+1)*v.In] {
					v.W.Grad.Data[o*v.In+j] += float32(gv * x.Data[j])
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

// refConvTaps lists, for every output position of c over an h×w input, the
// taps whose input element lies inside the input, in im2col order.
func refConvTaps(c *nn.Conv2D, h, w int) [][]refTap {
	p := c.K / 2
	out := make([][]refTap, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t := 0
			for ch := 0; ch < c.InC; ch++ {
				for kh := 0; kh < c.K; kh++ {
					for kw := 0; kw < c.K; kw++ {
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

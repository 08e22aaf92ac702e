package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refMatMulAddTransB computes C += A·Bᵀ one dot product per element: the
// conv weight gradient dW += dY·colᵀ over explicit im2col columns, as
// training computed it before ConvTapGrads, and the arithmetic-order oracle
// ConvTapGrads must reproduce bit for bit.
func refMatMulAddTransB(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range ai {
				s += float32(av * bj[p])
			}
			ci[j] += s
		}
	}
}

// refCol2Im is Col2Im's original per-element loop, bounds-checking every
// output position.
func refCol2Im(dx, col *Tensor, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	dx.Zero()
	xd, cd := dx.Data, col.Data
	row := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				in := cd[row*cols : (row+1)*cols]
				idx := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						idx += ow
						continue
					}
					rowBase := chanBase + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix >= 0 && ix < g.InW {
							xd[rowBase+ix] += in[idx]
						}
						idx++
					}
				}
				row++
			}
		}
	}
}

// gradTensor fills a tensor like randTensor but mixes in signed zeros,
// subnormals and large magnitudes, where a reordered sum or a dropped
// +0 start would show in the bits.
func gradTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := randTensor(rng, shape...)
	for i := range t.Data {
		switch rng.Intn(16) {
		case 0:
			t.Data[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		case 1:
			t.Data[i] *= 1e-40
		case 2:
			t.Data[i] *= 1e30
		}
	}
	return t
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s element %d: %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestConvTapGradsMatchesIm2Col holds ConvTapGrads to the dot products of
// an output-gradient row with explicit im2col columns, bit for bit, from
// gradients that do not start at zero: once over every output position and
// once over only the positions whose gradient is nonzero, as the conv layers
// call it. The gradients mix in signed zeros, subnormals and large
// magnitudes, and the tap counts cover both sides of the four-tap unroll.
func TestConvTapGradsMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct{ c, h, w, k int }{
		{1, 1, 1, 1}, {1, 2, 2, 3}, {1, 5, 5, 3}, {2, 9, 7, 3}, {3, 4, 6, 1}, {3, 32, 32, 3},
		{8, 16, 16, 3}, {2, 6, 5, 5}, {1, 3, 2, 5},
	} {
		t.Run(fmt.Sprintf("c%d/%dx%d/k%d", tc.c, tc.h, tc.w, tc.k), func(t *testing.T) {
			p := tc.k / 2
			g := ConvGeom{InC: tc.c, InH: tc.h, InW: tc.w, KH: tc.k, KW: tc.k, StrideH: 1, StrideW: 1, PadH: p, PadW: p}
			x := randTensor(rng, tc.c, tc.h, tc.w)
			col := New(g.ColRows(), g.ColCols())
			im2colRef(col, x, g)

			pw, ph := tc.w+2*p, tc.h+2*p
			pad := make([]float32, tc.c*ph*pw)
			for c := 0; c < tc.c; c++ {
				for y := 0; y < tc.h; y++ {
					copy(pad[c*ph*pw+(y+p)*pw+p:], x.Data[(c*tc.h+y)*tc.w:(c*tc.h+y+1)*tc.w])
				}
			}
			var offs []int
			for c := 0; c < tc.c; c++ {
				for kh := 0; kh < tc.k; kh++ {
					for kw := 0; kw < tc.k; kw++ {
						offs = append(offs, c*ph*pw+kh*pw+kw)
					}
				}
			}
			for trial := 0; trial < 4; trial++ {
				dy := gradTensor(rng, 1, g.ColCols())
				if trial == 3 {
					clear(dy.Data) // no gradient at all: gw must keep its bits
				}
				want := gradTensor(rng, 1, g.ColRows())
				all, sparse := want.Clone(), want.Clone()
				refMatMulAddTransB(want, dy, col)

				var vals, nz []float32
				var pos, nzPos []int
				for y := 0; y < tc.h; y++ {
					for xx := 0; xx < tc.w; xx++ {
						v := dy.Data[y*tc.w+xx]
						vals, pos = append(vals, v), append(pos, y*pw+xx)
						if v != 0 {
							nz, nzPos = append(nz, v), append(nzPos, y*pw+xx)
						}
					}
				}
				ConvTapGrads(all.Data, vals, pos, pad, offs)
				ConvTapGrads(sparse.Data, nz, nzPos, pad, offs)
				requireSameBits(t, "every position", all.Data, want.Data)
				requireSameBits(t, "nonzero positions", sparse.Data, want.Data)
			}
		})
	}
}

func TestCol2ImBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sizes := [][2]int{{1, 1}, {2, 3}, {5, 5}, {7, 4}, {8, 8}, {16, 16}, {32, 32}}
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, k / 2} {
				for _, hw := range sizes {
					g := ConvGeom{InC: 1 + rng.Intn(3), InH: hw[0], InW: hw[1], KH: k, KW: k,
						StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
					if g.InH+2*pad < k || g.InW+2*pad < k {
						continue
					}
					col := gradTensor(rng, g.ColRows(), g.ColCols())
					got := New(g.InC, g.InH, g.InW)
					for i := range got.Data {
						got.Data[i] = 7 // Col2Im must zero dx first
					}
					want := New(g.InC, g.InH, g.InW)
					Col2Im(got, col, g)
					refCol2Im(want, col, g)
					requireSameBits(t, fmt.Sprintf("%+v", g), got.Data, want.Data)
				}
			}
		}
	}
}

// BenchmarkBackward times the training-only backward kernels at the deep
// bench-zoo model's shapes (c2w8, 32×32 RGB): the weight gradient of one
// filter of each conv (ConvTapGrads over 27 taps of a 34×34 padded RGB input
// and 72 taps of an 18×18 padded 8-channel one, with a gradient routed to
// one position in each 2×2 pooling window, as a conv block routes it), and
// the col2im scatter of each conv's input gradient.
//
//	go test -run=NONE -bench=BenchmarkBackward ./internal/tensor
func BenchmarkBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	for _, sh := range [][3]int{{3, 32, 32}, {8, 16, 16}} {
		c, h, w := sh[0], sh[1], sh[2]
		pw, plane := w+2, (h+2)*(w+2)
		pad := randTensor(rng, c*plane).Data
		var offs []int
		for ci := 0; ci < c; ci++ {
			for kh := 0; kh < 3; kh++ {
				for kw := 0; kw < 3; kw++ {
					offs = append(offs, ci*plane+kh*pw+kw)
				}
			}
		}
		var g []float32
		var pos []int
		for y := 0; y < h; y += 2 {
			for x := 0; x < w; x += 2 {
				g, pos = append(g, rng.Float32()), append(pos, (y+rng.Intn(2))*pw+x+rng.Intn(2))
			}
		}
		// Within a pair of rows the routed positions are in window order;
		// the kernel wants them in output order.
		sort.Ints(pos)
		gw := make([]float32, len(offs))
		b.Run(fmt.Sprintf("ConvTapGrads/%d·%dx%d", len(offs), len(g), h*w), func(b *testing.B) {
			for b.Loop() {
				ConvTapGrads(gw, g, pos, pad, offs)
			}
		})
	}
	for _, g := range []ConvGeom{
		{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	} {
		col, dx := randTensor(rng, g.ColRows(), g.ColCols()), New(g.InC, g.InH, g.InW)
		b.Run(fmt.Sprintf("Col2Im/%dx%d·%dx%d", g.ColRows(), g.ColCols(), g.InH, g.InW), func(b *testing.B) {
			for b.Loop() {
				Col2Im(dx, col, g)
			}
		})
	}
}

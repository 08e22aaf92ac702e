package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMulAddTransB is MatMulAddTransB's original loop, one dot product
// per element: the arithmetic-order oracle the four-chain kernel must
// reproduce bit for bit.
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
				s += av * bj[p]
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

func TestMatMulAddTransBBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 72}
	for _, m := range []int{1, 3, 8} {
		for _, k := range []int{1, 7, 256, 1024} {
			for _, n := range ns {
				a := gradTensor(rng, m, k)
				b := gradTensor(rng, n, k)
				got := gradTensor(rng, m, n) // C does not start at zero
				want := got.Clone()
				MatMulAddTransB(got, a, b)
				refMatMulAddTransB(want, a, b)
				requireSameBits(t, fmt.Sprintf("m=%d k=%d n=%d", m, k, n), got.Data, want.Data)
			}
		}
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
					got.Fill(7) // Col2Im must zero dx first
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
// bench-zoo model's shapes (c2w8, 32×32 RGB): the weight gradient
// dW += dY·colᵀ of its two convs, [8×1024]·[27×1024]ᵀ and
// [8×256]·[72×256]ᵀ, and the col2im scatter of each conv's input gradient.
//
//	go test -run=NONE -bench=BenchmarkBackward ./internal/tensor
func BenchmarkBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	for _, sh := range [][3]int{{8, 1024, 27}, {8, 256, 72}} {
		m, k, n := sh[0], sh[1], sh[2]
		dy, col, dw := randTensor(rng, m, k), randTensor(rng, n, k), New(m, n)
		b.Run(fmt.Sprintf("MatMulAddTransB/%dx%d·%dx%d", m, k, n, k), func(b *testing.B) {
			for b.Loop() {
				MatMulAddTransB(dw, dy, col)
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

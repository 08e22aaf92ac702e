package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveRef is the unblocked i,k,j triple loop without the zero-skip: the
// exact arithmetic-order reference the blocked kernel must reproduce
// bit-for-bit.
func naiveRef(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
}

// TestGemmBitIdenticalToNaiveOrder: at every blocking edge case (rows and
// columns not multiples of the micro-kernel, k crossing the panel size) the
// blocked kernel must be bit-identical to the plain triple loop.
func TestGemmBitIdenticalToNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {1, 9, 1}, {3, 5, 7}, {4, 8, 16}, {5, 27, 33},
		{8, 27, 256}, {16, 72, 64}, {2, 300, 10}, {7, 513, 9},
		{1, 1024, 1}, {4, 257, 4}, {6, 512, 65},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randTensor(rng, m, k)
			b := randTensor(rng, k, n)
			got := New(m, n)
			want := New(m, n)
			// Dirty the output to prove Gemm overwrites rather than
			// accumulates stale state on the first panel.
			got.Fill(999)
			Gemm(got, a, b)
			naiveRef(want, a, b)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("element %d: blocked %v != reference %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestGemmShapeSweepBitIdenticalToNaiveOrder crosses every dispatch and
// unrolling boundary of the kernel family at once: m around the 4-row
// (narrow) and 2-row (tiled) interleaves, k around wide's four-fold unroll
// (including k=0), and n on both sides of gemmNarrowMax, gemmTiledMax and
// the gemmJC strip width. Every shape must be bit-identical to the plain
// triple loop, over a dirty output buffer.
func TestGemmShapeSweepBitIdenticalToNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ms := []int{1, 2, 3, 4, 5, 7, 16}
	ks := []int{0, 1, 2, 3, 4, 5, 9, 27, 64, 67, 513}
	ns := []int{
		1, 2, gemmNarrowMax - 1, gemmNarrowMax, gemmNarrowMax + 1, 7,
		gemmTiledMax - 1, gemmTiledMax, gemmTiledMax + 1, 33, 100,
		gemmJC - 1, gemmJC, gemmJC + 1,
	}
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
					a := randTensor(rng, m, k)
					b := randTensor(rng, k, n)
					got := New(m, n)
					want := New(m, n)
					got.Fill(-999)
					Gemm(got, a, b)
					naiveRef(want, a, b)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("element %d: blocked %v != reference %v", i, got.Data[i], want.Data[i])
						}
					}
				})
			}
		}
	}
}

// TestGemmColumnBlockInvariance is the batched-inference correctness gate at
// the kernel level: stacking B column blocks into one wide GEMM must give
// every block the exact bits that B narrow GEMMs give.
func TestGemmColumnBlockInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, k, n, bsz = 8, 300, 25, 7
	a := randTensor(rng, m, k)
	wide := New(k, bsz*n)
	narrow := make([]*Tensor, bsz)
	for s := 0; s < bsz; s++ {
		narrow[s] = randTensor(rng, k, n)
		for p := 0; p < k; p++ {
			copy(wide.Data[p*bsz*n+s*n:p*bsz*n+(s+1)*n], narrow[s].Data[p*n:(p+1)*n])
		}
	}
	cw := New(m, bsz*n)
	Gemm(cw, a, wide)
	for s := 0; s < bsz; s++ {
		cn := New(m, n)
		Gemm(cn, a, narrow[s])
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				got := cw.Data[i*bsz*n+s*n+j]
				want := cn.Data[i*n+j]
				if got != want {
					t.Fatalf("sample %d element (%d,%d): wide %v != narrow %v", s, i, j, got, want)
				}
			}
		}
	}
}

func TestGemmPanicsOnBadShapes(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("inner", func() { Gemm(New(2, 2), New(2, 3), New(4, 2)) })
	expectPanic("out", func() { Gemm(New(2, 3), New(2, 3), New(3, 2)) })
}

func TestGemmZeroDims(t *testing.T) {
	c := New(2, 3)
	c.Fill(5)
	Gemm(c, New(2, 0), New(0, 3))
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("k=0 product element %d = %v, want 0", i, v)
		}
	}
	// n=0 must not panic.
	Gemm(New(2, 0), New(2, 3), New(3, 0))
}

// TestConvTapsMatchesIm2ColGemm: summing shifted windows of a zero-padded
// plane buffer must give, at every output position, the bits of im2col
// followed by the plain triple loop, across strip boundaries (a plane wider
// than gemmJC) and tap counts on both sides of the four-fold unroll.
func TestConvTapsMatchesIm2ColGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ c, h, w, k int }{
		{1, 5, 5, 3}, {2, 9, 7, 3}, {3, 4, 6, 1}, {1, 40, 40, 3}, {2, 6, 5, 5},
	} {
		t.Run(fmt.Sprintf("c%d/%dx%d/k%d", tc.c, tc.h, tc.w, tc.k), func(t *testing.T) {
			p := tc.k / 2
			g := ConvGeom{InC: tc.c, InH: tc.h, InW: tc.w, KH: tc.k, KW: tc.k, StrideH: 1, StrideW: 1, PadH: p, PadW: p}
			x := randTensor(rng, tc.c, tc.h, tc.w)
			w := randTensor(rng, 1, g.ColRows())
			col := New(g.ColRows(), g.ColCols())
			Im2Col(col, x, g)
			want := New(1, g.ColCols())
			naiveRef(want, w, col)

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
			acc := make([]float32, ph*pw-(tc.k-1)*pw-(tc.k-1))
			for i := range acc {
				acc[i] = 999 // ConvTaps must overwrite, not accumulate
			}
			ConvTaps(acc, w.Data, pad, offs)
			for y := 0; y < tc.h; y++ {
				for xx := 0; xx < tc.w; xx++ {
					got, wv := acc[y*pw+xx], want.Data[y*tc.w+xx]
					if math.Float32bits(got) != math.Float32bits(wv) {
						t.Fatalf("(%d,%d): taps %v != im2col+gemm %v", y, xx, got, wv)
					}
				}
			}
		})
	}
}

// im2colRef is the seed's per-element im2col, kept as the oracle for the
// bulk-zeroed rewrite.
func im2colRef(col, x *Tensor, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	xd, cd := x.Data, col.Data
	row := 0
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				out := cd[row*cols : (row+1)*cols]
				idx := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						for ox := 0; ox < ow; ox++ {
							out[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chanBase + iy*g.InW
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.StrideW - g.PadW + kw
						if ix < 0 || ix >= g.InW {
							out[idx] = 0
						} else {
							out[idx] = xd[rowBase+ix]
						}
						idx++
					}
				}
				row++
			}
		}
	}
}

func TestIm2ColBulkZeroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	geoms := []ConvGeom{
		{InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{InC: 3, InH: 10, InW: 6, KH: 3, KW: 5, StrideH: 2, StrideW: 3, PadH: 1, PadW: 2},
		{InC: 1, InH: 2, InW: 2, KH: 7, KW: 7, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3},
		{InC: 2, InH: 8, InW: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
	}
	for gi, g := range geoms {
		x := randTensor(rng, g.InC, g.InH, g.InW)
		got := New(g.ColRows(), g.ColCols())
		got.Fill(42)
		Im2Col(got, x, g)
		want := New(g.ColRows(), g.ColCols())
		im2colRef(want, x, g)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("geom %d element %d: %v != reference %v", gi, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestEnsureShape(t *testing.T) {
	var s Tensor
	s.EnsureShape(2, 3)
	if s.Len() != 6 || s.Dims() != 2 {
		t.Fatalf("after first EnsureShape: %v", s.Shape)
	}
	data, shape := &s.Data[0], &s.Shape[0]
	s.EnsureShape(1, 4) // shrink: must reuse both backing array and shape slice
	if &s.Data[0] != data || &s.Shape[0] != shape || s.Len() != 4 {
		t.Fatal("shrinking EnsureShape reallocated")
	}
	s.EnsureShape(10, 10) // grow: new backing, same shape slice
	if &s.Shape[0] != shape || s.Len() != 100 {
		t.Fatal("growing EnsureShape mishandled shape slice")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rank change must panic")
		}
	}()
	s.EnsureShape(2, 2, 2)
}

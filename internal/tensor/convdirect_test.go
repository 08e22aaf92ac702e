package tensor

import (
	"math/rand"
	"testing"
)

// TestConvDirectMatchesIm2Col: the direct convolution and the im2col+GEMM
// path must agree — they are the two sides of the conv-strategy ablation.
func TestConvDirectMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		inC := 1 + rng.Intn(3)
		outC := 1 + rng.Intn(4)
		h := 3 + rng.Intn(8)
		w := 3 + rng.Intn(8)
		k := 1 + 2*rng.Intn(2)
		g := ConvGeom{InC: inC, InH: h, InW: w, KH: k, KW: k,
			StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2}

		x := randTensor(rng, inC, h, w)
		wt := randTensor(rng, outC, inC*k*k)
		b := randTensor(rng, outC)

		// im2col path.
		col := New(g.ColRows(), g.ColCols())
		im2colRef(col, x, g)
		ref2d := New(outC, g.ColCols())
		naiveRef(ref2d, wt, col)
		for f := 0; f < outC; f++ {
			for i := 0; i < g.ColCols(); i++ {
				ref2d.Data[f*g.ColCols()+i] += b.Data[f]
			}
		}

		// direct path.
		got := New(outC, g.OutH(), g.OutW())
		ConvDirect(got, x, wt, b, g)

		for i := range got.Data {
			if !almostEqual(got.Data[i], ref2d.Data[i], 1e-4) {
				t.Fatalf("trial %d: direct[%d]=%v, im2col=%v", trial, i, got.Data[i], ref2d.Data[i])
			}
		}
	}
}

func TestConvDirectShapePanic(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad output shape")
		}
	}()
	ConvDirect(New(2, 2, 2), New(1, 4, 4), New(1, 9), New(1), g)
}

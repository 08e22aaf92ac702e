package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestNewShapes(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	if tt.Dims() != 3 || tt.Dim(1) != 3 {
		t.Fatalf("dims wrong: %v", tt.Shape)
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	New(2, -1)
}

func TestNewFromValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewFrom([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := NewFrom([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	a.Reshape(3)
}

func TestCloneIsDeep(t *testing.T) {
	a := NewFrom([]float32{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func TestConvGeom(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 8 || g.OutW() != 8 {
		t.Fatalf("same-pad conv changed dims: %dx%d", g.OutH(), g.OutW())
	}
	if g.ColRows() != 27 || g.ColCols() != 64 {
		t.Fatalf("col geometry wrong: %dx%d", g.ColRows(), g.ColCols())
	}
	g2 := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	if g2.OutH() != 2 || g2.OutW() != 2 {
		t.Fatalf("strided geometry wrong: %dx%d", g2.OutH(), g2.OutW())
	}
}

// TestIm2ColIdentityKernel checks that a 1x1 "identity" unroll reproduces the
// input exactly.
func TestIm2ColIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randTensor(rng, 2, 4, 4)
	g := ConvGeom{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	col := New(g.ColRows(), g.ColCols())
	im2colRef(col, x, g)
	for i := range x.Data {
		if col.Data[i] != x.Data[i] {
			t.Fatalf("1x1 im2col is not identity at %d", i)
		}
	}
}

// TestIm2ColCol2ImAdjoint verifies <im2col(x), c> == <x, col2im(c)> — the
// defining property of the transpose pair that makes the conv input gradient
// (Wᵀ·dY scattered by Col2Im) correct.
func TestIm2ColCol2ImAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ch := 1 + rng.Intn(3)
		h := 2 + rng.Intn(6)
		w := 2 + rng.Intn(6)
		k := 1 + 2*rng.Intn(2) // 1 or 3
		g := ConvGeom{InC: ch, InH: h, InW: w, KH: k, KW: k, StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2}
		x := randTensor(rng, ch, h, w)
		c := randTensor(rng, g.ColRows(), g.ColCols())
		col := New(g.ColRows(), g.ColCols())
		im2colRef(col, x, g)
		dx := New(ch, h, w)
		Col2Im(dx, c, g)
		var lhs, rhs float64
		for i := range col.Data {
			lhs += float64(col.Data[i]) * float64(c.Data[i])
		}
		for i := range x.Data {
			rhs += float64(x.Data[i]) * float64(dx.Data[i])
		}
		return math.Abs(lhs-rhs) <= 1e-3*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); !almostEqual(got, 0.5, 1e-6) {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); !almostEqual(got, 1, 1e-6) {
		t.Fatalf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); !almostEqual(got, 0, 1e-6) {
		t.Fatalf("Sigmoid(-100) = %v", got)
	}
	// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
	for _, x := range []float32{0.1, 1.5, 3} {
		if !almostEqual(Sigmoid(-x), 1-Sigmoid(x), 1e-6) {
			t.Fatalf("sigmoid symmetry broken at %v", x)
		}
	}
}

func TestRandomizeUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(1000)
	x.RandomizeUniform(rng, 0.3)
	for _, v := range x.Data {
		if v < -0.3 || v > 0.3 {
			t.Fatalf("value %v out of [-0.3, 0.3]", v)
		}
	}
	var spread float32
	for _, v := range x.Data {
		spread = max(spread, v, -v)
	}
	if spread < 0.2 {
		t.Fatal("suspiciously small spread; RNG not filling range")
	}
}

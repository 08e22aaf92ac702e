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

func TestElementwiseOps(t *testing.T) {
	a := NewFrom([]float32{1, -2, 3}, 3)
	b := NewFrom([]float32{10, 10, 10}, 3)
	a.AddScaled(b, 0.5)
	want := []float32{6, 3, 8}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("AddScaled[%d] = %v, want %v", i, a.Data[i], want[i])
		}
	}
	a.Scale(2)
	if a.Data[0] != 12 {
		t.Fatalf("Scale: got %v", a.Data[0])
	}
	if a.MaxAbs() != 16 {
		t.Fatalf("MaxAbs = %v, want 16", a.MaxAbs())
	}
	if got := a.Sum(); got != 12+6+16 {
		t.Fatalf("Sum = %v", got)
	}
	a.Fill(1)
	if a.Sum() != 3 {
		t.Fatal("Fill failed")
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

// naiveMatMul is the reference implementation tests compare against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := New(m, n)
		MatMul(got, a, b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("trial %d: MatMul[%d] = %v, want %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)

		// MatMulAddTransB: C += A·Bᵀ, A (m×k), B (n×k).
		a := randTensor(rng, m, k)
		b := randTensor(rng, n, k)
		c := randTensor(rng, m, n)
		want := c.Clone()
		MatMulAddTransB(c, a, b)
		refMatMulAddTransB(want, a, b)
		for i := range want.Data {
			if math.Float32bits(c.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("MatMulAddTransB element %d: %v, reference %v", i, c.Data[i], want.Data[i])
			}
		}

		// MatMulTransA: C = Aᵀ·B, A (k×m), B (k×n).
		a2 := randTensor(rng, k, m)
		b2 := randTensor(rng, k, n)
		c2 := New(m, n)
		MatMulTransA(c2, a2, b2)
		at := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Data[j*k+i] = a2.Data[i*m+j]
			}
		}
		want2 := naiveMatMul(at, b2)
		for i := range want2.Data {
			if !almostEqual(c2.Data[i], want2.Data[i], 1e-4) {
				t.Fatalf("MatMulTransA mismatch at %d", i)
			}
		}
	}
}

func TestMatMulPanicsOnBadShapes(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	c := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMul(c, a, b)
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
	Im2Col(col, x, g)
	for i := range x.Data {
		if col.Data[i] != x.Data[i] {
			t.Fatalf("1x1 im2col is not identity at %d", i)
		}
	}
}

// TestIm2ColCol2ImAdjoint verifies <im2col(x), c> == <x, col2im(c)> — the
// defining property of the transpose pair that makes conv backward correct.
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
		Im2Col(col, x, g)
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
	if x.MaxAbs() < 0.2 {
		t.Fatal("suspiciously small spread; RNG not filling range")
	}
}

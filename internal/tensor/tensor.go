// Package tensor provides dense float32 tensors and the small set of
// numeric kernels (GEMM, im2col, elementwise maps) that the CNN engine in
// internal/nn is built on. Everything is deterministic: no global state, no
// hidden parallelism, and random initialization takes an explicit source.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor; use New or NewFrom to create a usable one.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative; a zero dimension yields an empty tensor.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float32, n)}
}

// NewFrom wraps data in a tensor with the given shape. The data is used
// directly (not copied). It panics if len(data) does not match the shape.
func NewFrom(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape. The element count must be
// preserved; the underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}
}

// EnsureShape resizes t in place to the given shape, reusing the existing
// Shape slice (the rank must match, or the previous shape must be empty) and
// the existing backing array when its capacity suffices; otherwise a larger
// backing array is allocated. Element values are unspecified afterwards.
// This is the scratch-buffer primitive behind the batched inference path:
// because batch sizes shrink as cascade levels decide frames, layers resize
// their batch scratch every call, and EnsureShape makes that allocation-free
// in the steady state.
func (t *Tensor) EnsureShape(shape ...int) {
	// The panic messages deliberately avoid formatting the shape slice:
	// boxing it into an interface would make the variadic argument escape
	// and cost the hot batched-inference path one heap allocation per call.
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in EnsureShape", d))
		}
		n *= d
	}
	if len(t.Shape) != len(shape) {
		if len(t.Shape) != 0 {
			panic(fmt.Sprintf("tensor: EnsureShape rank change %d -> %d", len(t.Shape), len(shape)))
		}
		t.Shape = make([]int, len(shape))
	}
	copy(t.Shape, shape)
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	} else {
		t.Data = t.Data[:n]
	}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != u.Shape[i] {
			return false
		}
	}
	return true
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RandomizeUniform fills t with uniform values in [-limit, limit] drawn from
// rng. Used for Glorot/He style initialization by the nn package.
func (t *Tensor) RandomizeUniform(rng *rand.Rand, limit float64) {
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * limit)
	}
}

// AddScaled computes t += alpha*u elementwise. Shapes must match in length.
func (t *Tensor) AddScaled(u *Tensor, alpha float32) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddScaled length mismatch")
	}
	for i, v := range u.Data {
		t.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value, or 0 for empty tensors.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// String renders a short description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("tensor%v", t.Shape)
}

// MatMul computes C = A·B for A (m×k) and B (k×n), storing into C (m×n).
// C must not alias A or B. The inner loops are ordered i,k,j so that both B
// and C are walked sequentially, which matters for the conv GEMMs.
func MatMul(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul output shape %v, want [%d %d]", c.Shape, m, n))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	for i := 0; i < m; i++ {
		ci := cd[i*n : (i+1)*n]
		clear(ci)
		for p := 0; p < k; p++ {
			if av := ad[i*k+p]; av != 0 {
				axpy(ci, bd[p*n:(p+1)*n], av)
			}
		}
	}
}

// MatMulAddTransB computes C += A·Bᵀ for A (m×k) and B (n×k), with C (m×n).
// Used for weight gradients (dW += dY·colᵀ).
//
// Every C[i,j] is one dot product: a float32 accumulator starting at +0
// takes A[i,p]·B[j,p] in increasing p, then is added to C[i,j] once. Four
// columns' accumulators run side by side over the shared A row, so the loop
// carries four independent add chains instead of one latency-bound chain,
// and no element's sum is reordered.
func MatMulAddTransB(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulAddTransB inner dims %d != %d", k, k2))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAddTransB output shape %v, want [%d %d]", c.Shape, m, n))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	for i := 0; i < m; i++ {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[(j+0)*k : (j+1)*k]
			b1 := bd[(j+1)*k : (j+2)*k]
			b2 := bd[(j+2)*k : (j+3)*k]
			b3 := bd[(j+3)*k : (j+4)*k]
			b0, b1, b2, b3 = b0[:len(ai)], b1[:len(ai)], b2[:len(ai)], b3[:len(ai)]
			var s0, s1, s2, s3 float32
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j] += s0
			ci[j+1] += s1
			ci[j+2] += s2
			ci[j+3] += s3
		}
		for ; j < n; j++ {
			bj := bd[j*k : (j+1)*k]
			bj = bj[:len(ai)]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] += s
		}
	}
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n), with C (m×n).
// Used for input gradients (dcol = Wᵀ·dY).
func MatMulTransA(c, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d != %d", k, k2))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA output shape %v, want [%d %d]", c.Shape, m, n))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	clear(cd)
	for p := 0; p < k; p++ {
		ap := ad[p*m : (p+1)*m]
		bp := bd[p*n : (p+1)*n]
		for i, av := range ap {
			if av != 0 {
				axpy(cd[i*n:(i+1)*n], bp, av)
			}
		}
	}
}

// ConvGeom describes the geometry of a 2-D convolution or pooling window over
// a CHW input.
type ConvGeom struct {
	InC, InH, InW    int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// ColRows returns the number of rows of the im2col matrix (C*KH*KW).
func (g ConvGeom) ColRows() int { return g.InC * g.KH * g.KW }

// ColCols returns the number of columns of the im2col matrix (OutH*OutW).
func (g ConvGeom) ColCols() int { return g.OutH() * g.OutW() }

// inSpan returns the half-open range [lo, hi) of output positions whose
// input coordinate ox*stride - pad + kOff lands inside [0, inDim). Positions
// outside the range read zero padding.
func inSpan(outDim, stride, pad, kOff, inDim int) (lo, hi int) {
	if d := pad - kOff; d > 0 {
		lo = (d + stride - 1) / stride
	}
	if lo > outDim {
		lo = outDim
	}
	hi = outDim
	if num := inDim - 1 + pad - kOff; num < 0 {
		hi = 0
	} else if h := num/stride + 1; h < hi {
		hi = h
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// im2colRow fills one im2col output row (the out slice, OutH*OutW values)
// for kernel offset (kh, kw) from one input channel plane. Padding runs are
// bulk-zeroed: each output row's out-of-bounds prefix and suffix are cleared
// with a single memclr-able span instead of per-element stores, and the
// in-bounds span is a straight copy when StrideW is 1.
func im2colRow(out, plane []float32, g ConvGeom, kh, kw, oh, ow int) {
	oxLo, oxHi := inSpan(ow, g.StrideW, g.PadW, kw, g.InW)
	idx := 0
	for oy := 0; oy < oh; oy++ {
		iy := oy*g.StrideH - g.PadH + kh
		if iy < 0 || iy >= g.InH {
			clear(out[idx : idx+ow])
			idx += ow
			continue
		}
		rowBase := iy * g.InW
		clear(out[idx : idx+oxLo])
		if oxHi == oxLo {
			clear(out[idx+oxLo : idx+ow])
			idx += ow
			continue
		}
		if g.StrideW == 1 {
			srcLo := rowBase + oxLo - g.PadW + kw
			copy(out[idx+oxLo:idx+oxHi], plane[srcLo:srcLo+oxHi-oxLo])
		} else {
			for ox := oxLo; ox < oxHi; ox++ {
				out[idx+ox] = plane[rowBase+ox*g.StrideW-g.PadW+kw]
			}
		}
		clear(out[idx+oxHi : idx+ow])
		idx += ow
	}
}

// Im2Col unrolls a CHW input x into col with shape [C*KH*KW, OutH*OutW],
// zero-padding out-of-bounds reads. col must be pre-allocated.
func Im2Col(col, x *Tensor, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	if col.Shape[0] != g.ColRows() || col.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2Col col shape %v, want [%d %d]", col.Shape, g.ColRows(), cols))
	}
	xd, cd := x.Data, col.Data
	planeLen := g.InH * g.InW
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := xd[c*planeLen : (c+1)*planeLen]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				im2colRow(cd[row*cols:(row+1)*cols], plane, g, kh, kw, oh, ow)
				row++
			}
		}
	}
}

// col2imRow is im2colRow's adjoint: it adds one im2col row (OutH*OutW
// values) for kernel offset (kh, kw) back into its input channel plane.
// The in-bounds output spans come from inSpan once per row, so padding
// costs no per-element branch, and a stride-1 row is one contiguous
// axpy(dst, src, 1), which is exact because 1·x = x.
func col2imRow(plane, in []float32, g ConvGeom, kh, kw, oh, ow int) {
	oyLo, oyHi := inSpan(oh, g.StrideH, g.PadH, kh, g.InH)
	oxLo, oxHi := inSpan(ow, g.StrideW, g.PadW, kw, g.InW)
	if oxHi == oxLo {
		return
	}
	for oy := oyLo; oy < oyHi; oy++ {
		src := in[oy*ow+oxLo : oy*ow+oxHi]
		dst := (oy*g.StrideH-g.PadH+kh)*g.InW + oxLo*g.StrideW - g.PadW + kw
		if g.StrideW == 1 {
			axpy(plane[dst:dst+len(src)], src, 1)
			continue
		}
		for _, v := range src {
			plane[dst] += v
			dst += g.StrideW
		}
	}
}

// Col2Im scatters a column matrix back into a CHW gradient, accumulating
// overlapping contributions. dx must be pre-allocated and is zeroed first.
// Each dx element receives its terms in (c, kh, kw, oy, ox) order.
func Col2Im(dx, col *Tensor, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	if col.Shape[0] != g.ColRows() || col.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: Col2Im col shape %v, want [%d %d]", col.Shape, g.ColRows(), cols))
	}
	dx.Zero()
	xd, cd := dx.Data, col.Data
	planeLen := g.InH * g.InW
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := xd[c*planeLen : (c+1)*planeLen]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				col2imRow(plane, cd[row*cols:(row+1)*cols], g, kh, kw, oh, ow)
				row++
			}
		}
	}
}

// Sigmoid returns 1/(1+exp(-x)) computed in float64 for stability.
func Sigmoid(x float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(x))))
}

// Package tensor provides dense float32 tensors and the small set of
// numeric kernels (GEMM, the implicit-GEMM conv taps and their weight
// gradient, col2im, the pooling epilogue, elementwise maps) that the CNN
// engine in internal/nn is built on. Everything is deterministic: no global
// state, no hidden parallelism, and random initialization takes an explicit
// source.
//
// No kernel fuses a multiply and an add: every product is rounded to its
// type before it is added (an explicit conversion where the compiler could
// otherwise fuse the two, as it does on arm64), so every GOARCH computes the
// bits amd64 does.
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

// RandomizeUniform fills t with uniform values in [-limit, limit] drawn from
// rng. Used for Glorot/He style initialization by the nn package.
func (t *Tensor) RandomizeUniform(rng *rand.Rand, limit float64) {
	for i := range t.Data {
		// The conversion rounds rng.Float64's inlined scaling product, which
		// arm64 would otherwise fuse into the doubling (compiled as an add).
		// Both are exact, so the bits match either way; the conversion keeps
		// the package free of fused multiply-adds, as CI checks.
		t.Data[i] = float32((float64(rng.Float64())*2 - 1) * limit)
	}
}

// String renders a short description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("tensor%v", t.Shape)
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

// col2imRow adds one im2col row (OutH*OutW values, the row of kernel
// offset (kh, kw)) back into its input channel plane.
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

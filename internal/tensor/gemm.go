package tensor

import "fmt"

// gemmJC is the column-strip width of the wide-n kernel and of ConvTaps: a
// 4KB strip of each C row stays L1-resident across the whole k sweep instead
// of being re-streamed from L2 once per k step, which a batched conv row
// (B·plane positions, tens of thousands of columns) would otherwise pay.
const gemmJC = 1024

// gemmNarrowMax is the exclusive upper bound of the narrow-n kernel: below
// it a 1×4 column tile cannot form, so columns are walked scalar with four
// A-rows interleaved to break the serial dependency chain of a lone
// dot product (the single-sample Dense shape, n=1).
const gemmNarrowMax = 4

// gemmTiledMax is the exclusive upper bound of the register-tiled kernel.
// Above it the k-unrolled streaming kernel wins (C-strip traffic amortizes
// over four B-row streams), below it holding accumulators in registers
// wins; the crossover was measured on the dense shapes the nn package
// produces.
const gemmTiledMax = 16

// Gemm computes C = A·B for A (m×k) and B (k×n), storing into C (m×n): a
// register-blocked, tiled kernel family dispatched on the output width,
// because no single scalar loop nest is fastest at both the narrow shapes
// (Dense at one sample, n=1) and the wide ones (Dense over a batch, the conv
// input gradient Wᵀ·dY at n=OH·OW). C must not alias A or B.
//
// Bit-determinism contract: for every output element C[i,j], the products
// A[i,p]·B[p,j] are accumulated into a single float32 accumulator that starts
// at +0, in strictly increasing p order, in every kernel variant, at every
// shape. The result is therefore bit-identical to the plain i,k,j triple loop
// regardless of m and n — which is what makes the batched inference path
// (one wide GEMM for B samples) produce scores bit-identical to the
// single-sample path (B narrow GEMMs). It also equals an i,k,j loop that
// skips zero A[i,p]: a skipped product is ±0, and an accumulator that starts
// at +0 is never −0, so adding ±0 to it changes no bits.
func Gemm(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: Gemm inner dims %d != %d", k, k2))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: Gemm output shape %v, want [%d %d]", c.Shape, m, n))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	if k == 0 || n == 0 {
		for i := range cd {
			cd[i] = 0
		}
		return
	}
	switch {
	case n < gemmNarrowMax:
		gemmNarrow(cd, ad, bd, m, k, n)
	case n < gemmTiledMax:
		gemmTiled(cd, ad, bd, m, k, n)
	default:
		gemmWide(cd, ad, bd, m, k, n)
	}
}

// gemmNarrow handles n < 4: columns are walked scalar, with four rows of A
// interleaved so the inner k loop carries four independent accumulator
// chains instead of one latency-bound dot product.
func gemmNarrow(cd, ad, bd []float32, m, k, n int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := ad[(i+0)*k : (i+1)*k]
		a1 := ad[(i+1)*k : (i+2)*k]
		a2 := ad[(i+2)*k : (i+3)*k]
		a3 := ad[(i+3)*k : (i+4)*k]
		a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
		for j := 0; j < n; j++ {
			var s0, s1, s2, s3 float32
			bi := j
			for p, av0 := range a0 {
				bv := bd[bi]
				s0 += float32(av0 * bv)
				s1 += float32(a1[p] * bv)
				s2 += float32(a2[p] * bv)
				s3 += float32(a3[p] * bv)
				bi += n
			}
			cd[(i+0)*n+j] = s0
			cd[(i+1)*n+j] = s1
			cd[(i+2)*n+j] = s2
			cd[(i+3)*n+j] = s3
		}
	}
	for ; i < m; i++ {
		ai := ad[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s float32
			bi := j
			for _, av := range ai {
				s += float32(av * bd[bi])
				bi += n
			}
			cd[i*n+j] = s
		}
	}
}

// gemmTiled handles moderate widths with a 2×4 register micro-kernel: eight
// accumulators plus the shared B values fit the scalar register file (a 4×4
// tile spills), and every loaded A and B value feeds two or four
// multiply-adds.
func gemmTiled(cd, ad, bd []float32, m, k, n int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := ad[(i+0)*k : (i+1)*k]
		a1 := ad[(i+1)*k : (i+2)*k]
		a1 = a1[:len(a0)]
		c0 := cd[(i+0)*n : (i+1)*n]
		c1 := cd[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			bi := j
			for p, av0 := range a0 {
				bp := bd[bi : bi+4 : bi+4]
				av1 := a1[p]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				s00 += float32(av0 * b0)
				s01 += float32(av0 * b1)
				s02 += float32(av0 * b2)
				s03 += float32(av0 * b3)
				s10 += float32(av1 * b0)
				s11 += float32(av1 * b1)
				s12 += float32(av1 * b2)
				s13 += float32(av1 * b3)
				bi += n
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			var s0, s1 float32
			bi := j
			for p, av0 := range a0 {
				bv := bd[bi]
				s0 += float32(av0 * bv)
				s1 += float32(a1[p] * bv)
				bi += n
			}
			c0[j], c1[j] = s0, s1
		}
	}
	if i < m {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float32
			bi := j
			for _, av := range ai {
				bp := bd[bi : bi+4 : bi+4]
				s0 += float32(av * bp[0])
				s1 += float32(av * bp[1])
				s2 += float32(av * bp[2])
				s3 += float32(av * bp[3])
				bi += n
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			var s float32
			bi := j
			for _, av := range ai {
				s += float32(av * bd[bi])
				bi += n
			}
			ci[j] = s
		}
	}
}

// gemmWide handles the batched shapes: a streaming update over gemmJC-column
// strips, with the k loop unrolled four-fold so each pass reads four B-row
// streams and touches the C strip once — a quarter of the C read/write
// traffic of a plain rank-1 update, which is the store-port bound the other
// kernels hit. The C strip stays L1-resident for the whole k sweep. Within
// one j iteration the four products are added to the accumulator in
// increasing p order, so the per-element rounding sequence is unchanged.
func gemmWide(cd, ad, bd []float32, m, k, n int) {
	for j0 := 0; j0 < n; j0 += gemmJC {
		j1 := min(j0+gemmJC, n)
		for i := 0; i < m; i++ {
			ci := cd[i*n+j0 : i*n+j1]
			clear(ci)
			ai := ad[i*k : (i+1)*k]
			p := 0
			for ; p+4 <= k; p += 4 {
				axpy4(ci, bd[(p+0)*n+j0:(p+0)*n+j1], bd[(p+1)*n+j0:(p+1)*n+j1],
					bd[(p+2)*n+j0:(p+2)*n+j1], bd[(p+3)*n+j0:(p+3)*n+j1],
					ai[p], ai[p+1], ai[p+2], ai[p+3])
			}
			for ; p < k; p++ {
				axpy(ci, bd[p*n+j0:p*n+j1], ai[p])
			}
		}
	}
}

// ConvTaps computes one filter row of an implicit-GEMM convolution:
// acc[j] = Σ_t w[t]·x[offs[t]+j] for every j < len(acc). Tap t's im2col row
// is x shifted by offs[t], so no column matrix is built. Each element sums
// its taps in increasing t order into one float32 accumulator that starts at
// +0, the order Gemm uses for the k index, which keeps a conv computed this
// way bit-identical to im2col followed by Gemm (or by any i,k,j loop, with or
// without a zero-weight skip; see Gemm). The walk is stripped like
// gemmWide, so an acc strip stays L1-resident across all the taps. Every
// offs[t]+len(acc) must be at most len(x).
func ConvTaps(acc, w, x []float32, offs []int) {
	if len(w) != len(offs) {
		panic(fmt.Sprintf("tensor: ConvTaps has %d weights for %d taps", len(w), len(offs)))
	}
	n := len(acc)
	for j0 := 0; j0 < n; j0 += gemmJC {
		j1 := min(j0+gemmJC, n)
		ci := acc[j0:j1]
		clear(ci)
		t := 0
		for ; t+4 <= len(w); t += 4 {
			o0, o1, o2, o3 := offs[t], offs[t+1], offs[t+2], offs[t+3]
			axpy4(ci, x[o0+j0:o0+j1], x[o1+j0:o1+j1], x[o2+j0:o2+j1], x[o3+j0:o3+j1],
				w[t], w[t+1], w[t+2], w[t+3])
		}
		for ; t < len(w); t++ {
			axpy(ci, x[offs[t]+j0:offs[t]+j1], w[t])
		}
	}
}

// ConvTapGrads is ConvTaps' weight gradient: gw[t] += Σ_l g[l]·x[offs[t]+pos[l]]
// for every tap t. Tap t's im2col row is x shifted by offs[t], and pos[l] is
// the shift of the output position that carries gradient g[l], so no column
// matrix is built. Each gw[t] takes one float32 dot product that starts at
// +0 and adds its terms in increasing l, and is added to gw[t] once: with pos
// in increasing output order, that is the dot product of the filter's output
// gradient row with tap t's im2col row. Positions whose gradient is ±0 may be
// left out, which changes no bits: their products are ±0, and a sum that
// starts at +0 is never −0. Four taps' chains run side by side over the
// shared g, so the loop carries independent add chains and no sum is
// reordered. Every offs[t]+pos[l] must index x.
func ConvTapGrads(gw, g []float32, pos []int, x []float32, offs []int) {
	if len(gw) != len(offs) || len(g) != len(pos) {
		panic(fmt.Sprintf("tensor: ConvTapGrads has %d gradients for %d taps, %d values at %d positions",
			len(gw), len(offs), len(g), len(pos)))
	}
	t := 0
	for ; t+4 <= len(offs); t += 4 {
		x0, x1, x2, x3 := x[offs[t]:], x[offs[t+1]:], x[offs[t+2]:], x[offs[t+3]:]
		var s0, s1, s2, s3 float32
		for l, gv := range g {
			p := pos[l]
			s0 += float32(gv * x0[p])
			s1 += float32(gv * x1[p])
			s2 += float32(gv * x2[p])
			s3 += float32(gv * x3[p])
		}
		gw[t] += s0
		gw[t+1] += s1
		gw[t+2] += s2
		gw[t+3] += s3
	}
	for ; t < len(offs); t++ {
		xt := x[offs[t]:]
		var s float32
		for l, gv := range g {
			s += float32(gv * xt[pos[l]])
		}
		gw[t] += s
	}
}

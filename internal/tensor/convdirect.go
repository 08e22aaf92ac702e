package tensor

// ConvDirect computes a 2-D convolution with plain nested loops, one output
// at a time, without the implicit-GEMM restructuring (ConvTaps over
// zero-padded planes) the nn package uses. It exists as the ablation baseline
// for the design choice benchmarked in BenchmarkAblationConv (see DESIGN.md):
// out[f] = b[f] + sum_c sum_kh sum_kw w[f,c,kh,kw] * x[c, y+kh-p, x+kw-p].
//
// w is [outC, inC*KH*KW] (the same layout Conv2D stores), b is [outC], x is
// [inC, H, W], and out must be [outC, OutH, OutW].
func ConvDirect(out, x, w, b *Tensor, g ConvGeom) {
	oh, ow := g.OutH(), g.OutW()
	outC := w.Shape[0]
	if out.Shape[0] != outC || out.Shape[1] != oh || out.Shape[2] != ow {
		panic("tensor: ConvDirect output shape mismatch")
	}
	xd, wd, od := x.Data, w.Data, out.Data
	kArea := g.KH * g.KW
	for f := 0; f < outC; f++ {
		bias := b.Data[f]
		wRow := wd[f*g.InC*kArea : (f+1)*g.InC*kArea]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bias
				for c := 0; c < g.InC; c++ {
					chanBase := c * g.InH * g.InW
					wBase := c * kArea
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.StrideH - g.PadH + kh
						if iy < 0 || iy >= g.InH {
							continue
						}
						rowBase := chanBase + iy*g.InW
						wRowBase := wBase + kh*g.KW
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.StrideW - g.PadW + kw
							if ix < 0 || ix >= g.InW {
								continue
							}
							acc += float32(wRow[wRowBase+kw] * xd[rowBase+ix])
						}
					}
				}
				od[f*oh*ow+oy*ow+ox] = acc
			}
		}
	}
}

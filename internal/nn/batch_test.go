package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tahoma/internal/tensor"
)

func batchTestNet(t testing.TB, seed int64, convLayers, convWidth, denseWidth, channels, size int) *Network {
	t.Helper()
	blocks := make([][2]int, convLayers)
	for i := range blocks {
		blocks[i] = [2]int{convWidth, 3}
	}
	net, err := NewNetwork(channels, size, size, blocks, denseWidth)
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(seed)))
	return net
}

// sameBits compares float32s bit for bit: unlike ==, it tells −0 from +0.
func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestForwardBatchBitParity is the batched-inference correctness gate at the
// network level: for every architecture shape and batch size, ForwardBatch
// must reproduce the reference layer walk's logits (refNet) bit for bit, and
// so must Forward.
func TestForwardBatchBitParity(t *testing.T) {
	configs := []struct {
		conv, cw, dw, ch, size int
	}{
		{0, 0, 4, 1, 4},   // logistic regression on raw pixels
		{1, 2, 4, 1, 8},   // single conv block, gray
		{1, 4, 8, 3, 16},  // single conv block, rgb
		{2, 8, 16, 3, 16}, // two conv blocks
		{3, 4, 8, 1, 32},  // three conv blocks
		{1, 3, 4, 2, 9},   // odd size: pooling floors a row and a column
		{2, 4, 8, 3, 15},  // odd sizes in both blocks (15 → 7 → 3)
	}
	for ci, cfg := range configs {
		net := batchTestNet(t, 900+int64(ci), cfg.conv, cfg.cw, cfg.dw, cfg.ch, cfg.size)
		ref := newRefNet(net)
		rng := rand.New(rand.NewSource(1000 + int64(ci)))
		n := cfg.ch * cfg.size * cfg.size
		samples := make([][]float32, 17)
		want := make([]float32, len(samples))
		for s := range samples {
			pix := make([]float32, n)
			for i := range pix {
				pix[i] = rng.Float32()
			}
			samples[s] = pix
			x := tensor.NewFrom(pix, cfg.ch, cfg.size, cfg.size)
			want[s] = ref.forward(x)
			if got := net.Forward(x); !sameBits(got, want[s]) {
				t.Fatalf("cfg %d sample %d: Forward logit %v != reference %v", ci, s, got, want[s])
			}
		}
		for _, bsz := range []int{1, 2, 3, 5, 8, 17} {
			t.Run(fmt.Sprintf("cfg=%d/b=%d", ci, bsz), func(t *testing.T) {
				got := make([]float32, bsz)
				net.ForwardBatch(samples[:bsz], got)
				for s := 0; s < bsz; s++ {
					if !sameBits(got[s], want[s]) {
						t.Fatalf("sample %d: batch logit %v != reference logit %v", s, got[s], want[s])
					}
				}
			})
		}
		// Shrinking then regrowing the batch (the level-major executor's
		// survivor pattern) must keep reusing scratch correctly.
		got := make([]float32, len(samples))
		for _, bsz := range []int{17, 5, 1, 9, 17} {
			net.ForwardBatch(samples[:bsz], got)
			for s := 0; s < bsz; s++ {
				if !sameBits(got[s], want[s]) {
					t.Fatalf("cfg %d resize to b=%d: sample %d diverged", ci, bsz, s)
				}
			}
		}
	}
}

// TestConvBlockBitParity holds the fused conv block, over a batch and one
// sample at a time, to the reference walk of the three layers it replaces
// (the im2col conv, then refReLU and refPool), bit for bit on every pooled
// activation rather than only on the final logit. The
// inputs and weights are built to hit the epilogue's edge cases: an all-zero
// frame and a zeroed filter give sums of exactly +0, biases of −0 and +0 meet
// them, constant frames and a filter with equal taps tie every pool window,
// and odd sizes drop a row and a column. The pooled widths 1–9 and 16 cover
// the epilogue kernel's 4-wide body, its repeated steps and every scalar
// tail length.
func TestConvBlockBitParity(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, size := range []int{2, 4, 6, 9, 10, 12, 14, 16, 19, 32} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			const inC, outC = 2, 5
			conv, relu, pool := newConv2D(inC, outC, 3), &refReLU{}, &refPool{}
			conv.Init(rand.New(rand.NewSource(int64(size))))
			taps := inC * 9
			w, bias := conv.W.Value.Data, conv.B.Value.Data
			clear(w[0:taps]) // filter 0: all-zero weights, bias −0
			bias[0] = negZero
			for i := taps; i < 2*taps; i++ { // filter 1: equal taps, bias −0
				w[i] = 0.25
			}
			bias[1] = negZero
			bias[2] = 0 // filter 2: random weights, bias +0
			bias[3] = -0.5
			bias[4] = 0.125

			rng := rand.New(rand.NewSource(7))
			plane := size * size
			frames := [][]float32{
				make([]float32, inC*plane), // all zero
				make([]float32, inC*plane), // all −0
				make([]float32, inC*plane), // constant
				make([]float32, inC*plane), // random signs
			}
			for i := range frames[1] {
				frames[1][i] = negZero
				frames[2][i] = 0.75
				frames[3][i] = rng.Float32()*2 - 1
			}

			bsz := len(frames)
			x := tensor.New(inC, bsz, size, size)
			for s, f := range frames {
				for c := 0; c < inC; c++ {
					copy(x.Data[(c*bsz+s)*plane:], f[c*plane:(c+1)*plane])
				}
			}
			block := &convBlock{conv: conv}
			block.run(x.Data, bsz, size, size, false)
			got := block.out.Clone()
			oh := size / 2
			ref := &refConv{c: conv}
			for s, f := range frames {
				one := tensor.NewFrom(f, inC, size, size)
				want := pool.forward(relu.forward(ref.forward(one)))
				block.run(one.Data, 1, size, size, true)
				requireBits(t, fmt.Sprintf("frame %d alone", s), block.out.Data, want.Data)
				for c := 0; c < outC; c++ {
					for i := 0; i < oh*oh; i++ {
						g, wv := got.Data[(c*bsz+s)*oh*oh+i], want.Data[c*oh*oh+i]
						if !sameBits(g, wv) {
							t.Fatalf("frame %d filter %d pos %d: block %v (%#x) != layers %v (%#x)",
								s, c, i, g, math.Float32bits(g), wv, math.Float32bits(wv))
						}
					}
				}
			}
		})
	}
}

// TestPredictBatchMatchesPredict checks the sigmoid stage too.
func TestPredictBatchMatchesPredict(t *testing.T) {
	net := batchTestNet(t, 77, 1, 2, 4, 1, 8)
	rng := rand.New(rand.NewSource(78))
	samples := make([][]float32, 6)
	want := make([]float32, len(samples))
	for s := range samples {
		pix := make([]float32, 64)
		for i := range pix {
			pix[i] = rng.Float32()
		}
		samples[s] = pix
		want[s] = net.Predict(tensor.NewFrom(pix, 1, 8, 8))
	}
	got := make([]float32, len(samples))
	net.PredictBatch(samples, got)
	for s := range samples {
		if !sameBits(got[s], want[s]) {
			t.Fatalf("sample %d: PredictBatch %v != Predict %v", s, got[s], want[s])
		}
	}
}

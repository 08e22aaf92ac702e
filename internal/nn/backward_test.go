package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tahoma/internal/tensor"
)

// refDenseBackward is Dense.Backward's original fused scalar loop, the
// arithmetic-order oracle for the axpy form. It accumulates into gradW and
// gradB and returns the input gradient.
func refDenseBackward(d *Dense, x, dy *tensor.Tensor, gradW, gradB []float32) []float32 {
	wd, xd := d.W.Value.Data, x.Data
	dx := make([]float32, d.In)
	for o, g := range dy.Data {
		gradB[o] += g
		row := gradW[o*d.In : (o+1)*d.In]
		wrow := wd[o*d.In : (o+1)*d.In]
		for i := range row {
			row[i] += float32(g * xd[i])
			dx[i] += float32(g * wrow[i])
		}
	}
	return dx
}

// TestDenseBackwardBitIdentical holds Dense.Backward to its original loop
// bit for bit, from gradients that do not start at zero, over widths on
// both sides of every axpy tail.
func TestDenseBackwardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ins := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 72, 512}
	for _, in := range ins {
		for _, out := range []int{1, 3, 16} {
			d := newDense(in, out)
			d.Init(rng)
			for i := range d.W.Grad.Data {
				d.W.Grad.Data[i] = rng.Float32() - 0.5
			}
			for i := range d.B.Grad.Data {
				d.B.Grad.Data[i] = rng.Float32() - 0.5
			}
			wantW := append([]float32(nil), d.W.Grad.Data...)
			wantB := append([]float32(nil), d.B.Grad.Data...)
			x, dy := randInput(rng, in), randInput(rng, out)
			dy.Data[0] = float32(math.Copysign(0, -1))
			d.Forward(x)
			dx := d.Backward(dy)
			wantDx := refDenseBackward(d, x, dy, wantW, wantB)
			name := fmt.Sprintf("dense(%d->%d)", in, out)
			for _, c := range []struct {
				what      string
				got, want []float32
			}{{"dW", d.W.Grad.Data, wantW}, {"dB", d.B.Grad.Data, wantB}, {"dx", dx.Data, wantDx}} {
				for i := range c.want {
					if !sameBits(c.got[i], c.want[i]) {
						t.Fatalf("%s %s[%d] = %v, reference %v", name, c.what, i, c.got[i], c.want[i])
					}
				}
			}
		}
	}
}

// TestTrainStepAllocatesNothing: once a network (or a clone) has run one
// step, a Forward and Backward step allocates nothing, in networks with
// and without conv blocks — training runs one such step per sample.
func TestTrainStepAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, conv := range []int{0, 1, 2} {
		net := batchTestNet(t, 46, conv, 4, 8, 3, 16)
		for _, n := range []*Network{net, net.Clone()} {
			x := randInput(rng, 3, 16, 16)
			n.ZeroGrad()
			allocs := testing.AllocsPerRun(20, func() {
				_, dz := BCELossWithLogits(n.Forward(x), 1)
				n.Backward(dz)
			})
			if allocs != 0 {
				t.Errorf("%d conv blocks: a training step allocates %v times", conv, allocs)
			}
		}
	}
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tahoma/internal/tensor"
)

// backwardToInput is Network.Backward carried on through the first layer
// with parameters: it accumulates parameter gradients and returns the
// gradient with respect to the input.
func backwardToInput(n *Network, dlogit float32) *tensor.Tensor {
	g := n.out.Backward(tensor.NewFrom([]float32{dlogit}, 1))
	for i, a := range n.hidden.out.Data {
		if !(a > 0) {
			g.Data[i] = 0
		}
	}
	g = n.hidden.Backward(g)
	for i := len(n.blocks) - 1; i >= 0; i-- {
		g = n.blocks[i].Backward(g)
	}
	return g
}

func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// refTestNet builds a network of conv blocks ({filters, kernel}) over an
// inC×h×w input with a dense width of 4, and plants the pool's and the
// ReLU's edge cases in the first block's filters: filter 0 has zero weights
// and a positive bias, so every window ties at one positive value and routes
// to its first position; filter 1 a bias no sum reaches, so every window is
// all-negative and routes nothing; filter 2 zero weights and a −0 bias, so
// every sum is +0 and every window ties at zero. The rest are random, with
// small random biases.
func refTestNet(t *testing.T, seed int64, inC, h, w int, blocks [][2]int) *Network {
	t.Helper()
	net, err := NewNetwork(inC, h, w, blocks, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	net.Init(rng)
	for i, b := range net.blocks {
		c := b.conv
		taps := c.InC * c.K * c.K
		wd, bd := c.W.Value.Data, c.B.Value.Data
		for f := range bd {
			bd[f] = (rng.Float32() - 0.5) / 4
		}
		if i != 0 {
			continue
		}
		clear(wd[:taps])
		bd[0] = 0.25
		if c.OutC > 1 {
			bd[1] = -1e4
		}
		if c.OutC > 2 {
			clear(wd[2*taps : 3*taps])
			bd[2] = float32(math.Copysign(0, -1))
		}
	}
	return net
}

// refTestInputs returns frames for a c×h×w network: random values of both
// signs, an all-zero frame, a constant frame (every interior window of a
// first-layer sum ties), and values on a coarse grid of 0, ±0.5 and ±1
// (exact sums, so windows tie where the inputs repeat).
func refTestInputs(rng *rand.Rand, c, h, w int) []*tensor.Tensor {
	n := c * h * w
	random, zero, constant, grid := tensor.New(c, h, w), tensor.New(c, h, w), tensor.New(c, h, w), tensor.New(c, h, w)
	for i := 0; i < n; i++ {
		random.Data[i] = rng.Float32()*2 - 1
		constant.Data[i] = 0.75
		grid.Data[i] = float32(rng.Intn(5)-2) / 2
	}
	return []*tensor.Tensor{random, zero, constant, grid}
}

// TestNetworkMatchesReference is the network's differential test: for conv
// blocks over 1, 3 and 8 input channels, 1–8 filters, 3×3 and 5×5 kernels,
// even, odd, non-square and 2×2 inputs, as a first layer and as inner
// blocks, Network.Forward, Network.Backward and a backward walk to the input
// must give the reference layer walk's logit, parameter gradients and input
// gradient bit for bit, on inputs with exact ties, zeros and all-negative
// pool windows; and after three Adam steps over those inputs both networks
// must hold the same weights, bit for bit.
func TestNetworkMatchesReference(t *testing.T) {
	for ci, cfg := range []struct {
		inC, h, w int
		blocks    [][2]int
	}{
		{1, 2, 2, [][2]int{{1, 3}}},
		{3, 2, 2, [][2]int{{3, 5}}},
		{1, 6, 6, [][2]int{{4, 3}}},
		{3, 9, 9, [][2]int{{8, 3}}},
		{8, 7, 10, [][2]int{{5, 5}}},
		{1, 11, 5, [][2]int{{7, 5}}},
		{3, 32, 32, [][2]int{{8, 3}, {8, 3}}},
		{1, 13, 9, [][2]int{{4, 3}, {6, 5}}},
		{8, 8, 8, [][2]int{{3, 5}, {2, 3}}},
		{3, 5, 4, [][2]int{{6, 3}, {1, 3}}},
		{8, 16, 12, [][2]int{{2, 3}, {8, 5}}},
	} {
		name := fmt.Sprintf("in%dx%dx%d", cfg.inC, cfg.h, cfg.w)
		for _, b := range cfg.blocks {
			name += fmt.Sprintf("/c%dk%d", b[0], b[1])
		}
		t.Run(name, func(t *testing.T) {
			seed := 500 + int64(ci)
			net := refTestNet(t, seed, cfg.inC, cfg.h, cfg.w, cfg.blocks)
			refNetwork := refTestNet(t, seed, cfg.inC, cfg.h, cfg.w, cfg.blocks)
			ref := newRefNet(refNetwork)
			inputs := refTestInputs(rand.New(rand.NewSource(seed)), cfg.inC, cfg.h, cfg.w)
			for k, x := range inputs {
				y := float32(k % 2)
				net.ZeroGrad()
				refNetwork.ZeroGrad()
				z, zr := net.Forward(x), ref.forward(x)
				requireBits(t, fmt.Sprintf("input %d logit", k), []float32{z}, []float32{zr})
				_, dz := BCELossWithLogits(z, y)
				dx, dxr := backwardToInput(net, dz), ref.backward(dz)
				requireBits(t, fmt.Sprintf("input %d input gradient", k), dx.Data, dxr.Data)
				walk := net.Params()
				for pi, p := range refNetwork.Params() {
					requireBits(t, fmt.Sprintf("input %d param %d gradient", k, pi), walk[pi].Grad.Data, p.Grad.Data)
				}
				// Network.Backward stops at the first block, which only
				// accumulates its parameter gradients.
				net.ZeroGrad()
				net.Forward(x)
				net.Backward(dz)
				for pi, p := range refNetwork.Params() {
					requireBits(t, fmt.Sprintf("input %d Backward param %d gradient", k, pi), walk[pi].Grad.Data, p.Grad.Data)
				}
			}

			opt, optRef := NewAdam(0.05), NewAdam(0.05)
			for step := 0; step < 3; step++ {
				net.ZeroGrad()
				refNetwork.ZeroGrad()
				for k, x := range inputs {
					y := float32((k + step) % 2)
					_, dz := BCELossWithLogits(net.Forward(x), y)
					net.Backward(dz / float32(len(inputs)))
					_, dzr := BCELossWithLogits(ref.forward(x), y)
					ref.backward(dzr / float32(len(inputs)))
				}
				opt.Step(net.Params())
				optRef.Step(refNetwork.Params())
				requireBits(t, fmt.Sprintf("step %d weights", step), net.Weights(), refNetwork.Weights())
			}
		})
	}
}

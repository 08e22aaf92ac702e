package nn

import (
	"math"
	"math/rand"
	"testing"

	"tahoma/internal/tensor"
)

func buildTinyNet(t *testing.T, seed int64) *Network {
	t.Helper()
	net, err := NewNetwork([]int{2, 4, 4},
		NewConv2D(2, 3, 3),
		NewReLU(),
		NewMaxPool2(),
		NewFlatten(),
		NewDense(3*2*2, 5),
		NewReLU(),
		NewDense(5, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(seed)))
	return net
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

// TestGradientCheck compares analytic parameter gradients against central
// finite differences — the definitive backprop correctness test.
func TestGradientCheck(t *testing.T) {
	net := buildTinyNet(t, 5)
	rng := rand.New(rand.NewSource(9))
	x := randInput(rng, 2, 4, 4)
	const y = 1.0

	lossAt := func() float64 {
		z := net.Forward(x)
		l, _ := BCELossWithLogits(z, y)
		return float64(l)
	}

	net.ZeroGrad()
	z := net.Forward(x)
	_, dz := BCELossWithLogits(z, y)
	net.Backward(dz)

	const eps = 1e-3
	checked := 0
	for pi, p := range net.Params() {
		// Spot-check a handful of coordinates per parameter tensor.
		step := p.Value.Len()/5 + 1
		for i := 0; i < p.Value.Len(); i += step {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-4, math.Abs(numeric)+math.Abs(analytic))
			if diff/scale > 0.05 {
				t.Errorf("param %d[%d]: analytic %.6f vs numeric %.6f", pi, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d coordinates checked; test is too weak", checked)
	}
}

// buildDenseNet is a c0-shaped network (no conv layers, as arch.Build emits
// it) over the same input as buildTinyNet.
func buildDenseNet(t *testing.T, seed int64) *Network {
	t.Helper()
	net, err := NewNetwork([]int{2, 4, 4},
		NewFlatten(),
		NewDense(2*4*4, 5),
		NewReLU(),
		NewDense(5, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(seed)))
	return net
}

// TestInputGradientCheck verifies the gradient flowing back to the input,
// and that Network.Backward, which stops at the first step with
// parameters, accumulates the same parameter gradients as the full walk.
func TestInputGradientCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		net  *Network
	}{{"conv-first", buildTinyNet(t, 6)}, {"dense-first", buildDenseNet(t, 6)}} {
		net := c.net
		rng := rand.New(rand.NewSource(10))
		x := randInput(rng, 2, 4, 4)
		const y float32 = 0

		net.ZeroGrad()
		z := net.Forward(x)
		_, dz := BCELossWithLogits(z, y)
		dx := backwardToInput(net, dz)

		var walk [][]float32
		for _, p := range net.Params() {
			walk = append(walk, append([]float32(nil), p.Grad.Data...))
		}
		net.ZeroGrad()
		net.Backward(dz)
		for pi, p := range net.Params() {
			for i, v := range p.Grad.Data {
				if !sameBits(v, walk[pi][i]) {
					t.Fatalf("%s: Backward param %d[%d] = %v, per-layer walk %v", c.name, pi, i, v, walk[pi][i])
				}
			}
		}

		const eps = 1e-2
		for _, i := range []int{0, 7, 13, 31} {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			zp := net.Forward(x)
			lp, _ := BCELossWithLogits(zp, y)
			x.Data[i] = orig - eps
			zm := net.Forward(x)
			lm, _ := BCELossWithLogits(zm, y)
			x.Data[i] = orig
			numeric := float64(lp-lm) / (2 * eps)
			analytic := float64(dx.Data[i])
			if math.Abs(numeric-analytic) > 0.05*math.Max(1e-3, math.Abs(numeric)+math.Abs(analytic)) {
				t.Errorf("%s: input[%d]: analytic %.6f vs numeric %.6f", c.name, i, analytic, numeric)
			}
		}
	}

	// Training never allocates the first parameterized layer's
	// input-gradient scratch.
	conv, dense := buildTinyNet(t, 7), buildDenseNet(t, 7)
	rng := rand.New(rand.NewSource(11))
	for _, net := range []*Network{conv, dense} {
		opt := NewAdam(0.01)
		for step := 0; step < 3; step++ {
			net.ZeroGrad()
			_, dz := BCELossWithLogits(net.Forward(randInput(rng, 2, 4, 4)), 1)
			net.Backward(dz)
			opt.Step(net.Params())
		}
	}
	if b := conv.steps[0].(*convBlock); b.grads.dx != nil || b.grads.dcol.Data != nil {
		t.Fatal("conv first block allocated its input-gradient scratch")
	}
	if d := dense.Layers[1].(*Dense); d.dx != nil {
		t.Fatal("dense first layer allocated its input-gradient scratch")
	}
	if d := dense.Layers[3].(*Dense); d.dx == nil {
		t.Fatal("second dense layer computed no input gradient")
	}
}

func TestNetworkShapeValidation(t *testing.T) {
	// Wrong channel count.
	if _, err := NewNetwork([]int{1, 4, 4}, NewConv2D(2, 3, 3), NewFlatten(), NewDense(48, 1)); err == nil {
		t.Fatal("expected channel mismatch error")
	}
	// Not ending in a single logit.
	if _, err := NewNetwork([]int{1, 2, 2}, NewFlatten(), NewDense(4, 3)); err == nil {
		t.Fatal("expected output-shape error")
	}
	// Pooling below 2x2.
	if _, err := NewNetwork([]int{1, 2, 2},
		NewMaxPool2(), NewMaxPool2(), NewFlatten(), NewDense(1, 1)); err == nil {
		t.Fatal("expected too-small pooling error")
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2()
	x := tensor.NewFrom([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 1, 1,
	}, 1, 4, 4)
	out := p.Forward(x)
	want := []float32{4, 8, 9, 3}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	dy := tensor.NewFrom([]float32{10, 20, 30, 40}, 1, 2, 2)
	dx := p.Backward(dy)
	// Gradient goes only to the argmax positions.
	if dx.Data[5] != 10 || dx.Data[7] != 20 || dx.Data[8] != 30 || dx.Data[11] != 40 {
		t.Fatalf("pool backward wrong: %v", dx.Data)
	}
	var sum float32
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("pool backward lost gradient mass: %v", sum)
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.NewFrom([]float32{-1, 0, 2}, 3)
	out := r.Forward(x)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Fatalf("relu forward: %v", out.Data)
	}
	dy := tensor.NewFrom([]float32{5, 5, 5}, 3)
	dx := r.Backward(dy)
	if dx.Data[0] != 0 || dx.Data[1] != 0 || dx.Data[2] != 5 {
		t.Fatalf("relu backward: %v", dx.Data)
	}
}

func TestConvKernelMustBeOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on even kernel")
		}
	}()
	NewConv2D(1, 1, 2)
}

func TestWeightsRoundTrip(t *testing.T) {
	a := buildTinyNet(t, 42)
	b := buildTinyNet(t, 43)
	w := a.Weights()
	if len(w) != a.ParamCount() {
		t.Fatalf("Weights length %d != ParamCount %d", len(w), a.ParamCount())
	}
	if err := b.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := randInput(rng, 2, 4, 4)
	if a.Forward(x) != b.Forward(x) {
		t.Fatal("networks with identical weights disagree")
	}
	if err := b.SetWeights(w[:len(w)-1]); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestCloneSharesWeightsNotScratch(t *testing.T) {
	a := buildTinyNet(t, 3)
	b := a.Clone()
	rng := rand.New(rand.NewSource(4))
	x := randInput(rng, 2, 4, 4)
	y := randInput(rng, 2, 4, 4)
	za := a.Forward(x)
	zb := b.Forward(x)
	if za != zb {
		t.Fatal("clone diverges from original")
	}
	// Interleaved use must not interfere.
	_ = a.Forward(y)
	if b.Forward(x) != zb {
		t.Fatal("clone scratch is shared with original")
	}
	// Nor may a clone's backward pass touch the original's gradients.
	a.ZeroGrad()
	b.Backward(1)
	for pi, p := range a.Params() {
		for i, v := range p.Grad.Data {
			if v != 0 {
				t.Fatalf("clone's Backward wrote the original's param %d[%d]", pi, i)
			}
		}
		if b.Params()[pi].Grad == p.Grad {
			t.Fatalf("clone shares param %d's gradient accumulator", pi)
		}
	}
}

func TestMACsPositive(t *testing.T) {
	net := buildTinyNet(t, 1)
	macs := net.MACs()
	// conv: 4*4*3*(2*9)=864; dense: 12*5=60 + 5 = 929.
	if macs != 864+60+5 {
		t.Fatalf("MACs = %d, want 929", macs)
	}
}

func TestBCELoss(t *testing.T) {
	// At z=0 both targets give log(2).
	l0, d0 := BCELossWithLogits(0, 0)
	l1, d1 := BCELossWithLogits(0, 1)
	if math.Abs(float64(l0)-math.Ln2) > 1e-6 || math.Abs(float64(l1)-math.Ln2) > 1e-6 {
		t.Fatalf("BCE at z=0: %v, %v", l0, l1)
	}
	if math.Abs(float64(d0)-0.5) > 1e-6 || math.Abs(float64(d1)+0.5) > 1e-6 {
		t.Fatalf("BCE grads at z=0: %v, %v", d0, d1)
	}
	// Extreme logits stay finite (the point of the stable form).
	for _, z := range []float32{-80, 80} {
		for _, y := range []float32{0, 1} {
			l, d := BCELossWithLogits(z, y)
			if math.IsInf(float64(l), 0) || math.IsNaN(float64(l)) {
				t.Fatalf("BCE overflow at z=%v y=%v: %v", z, y, l)
			}
			if math.IsNaN(float64(d)) {
				t.Fatalf("BCE grad NaN at z=%v y=%v", z, y)
			}
		}
	}
}

// TestTrainingConvergesOnSeparableTask fits a linearly separable toy problem
// and requires near-perfect training accuracy.
func TestTrainingConvergesOnSeparableTask(t *testing.T) {
	net, err := NewNetwork([]int{1, 2, 2}, NewFlatten(), NewDense(4, 4), NewReLU(), NewDense(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	net.Init(rng)
	opt := NewAdam(0.05)
	type ex struct {
		x *tensor.Tensor
		y float32
	}
	var data []ex
	for i := 0; i < 64; i++ {
		x := randInput(rng, 1, 2, 2)
		var y float32
		if x.Data[0]+x.Data[3] > 0 {
			y = 1
		}
		data = append(data, ex{x, y})
	}
	for epoch := 0; epoch < 60; epoch++ {
		net.ZeroGrad()
		for _, e := range data {
			z := net.Forward(e.x)
			_, dz := BCELossWithLogits(z, e.y)
			net.Backward(dz / float32(len(data)))
		}
		opt.Step(net.Params())
	}
	correct := 0
	for _, e := range data {
		if (net.Predict(e.x) >= 0.5) == (e.y >= 0.5) {
			correct++
		}
	}
	if correct < 60 {
		t.Fatalf("training failed to converge: %d/64 correct", correct)
	}
}

func TestAdamDescendsQuadratic(t *testing.T) {
	// Minimize (w-3)^2 by feeding grad = 2(w-3).
	p := &Param{Value: tensor.NewFrom([]float32{0}, 1), Grad: tensor.New(1)}
	adam := NewAdam(0.1)
	for i := 0; i < 300; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		adam.Step([]*Param{p})
	}
	if math.Abs(float64(p.Value.Data[0])-3) > 0.05 {
		t.Fatalf("Adam did not converge: w=%v", p.Value.Data[0])
	}
}

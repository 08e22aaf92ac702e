package arch

import (
	"fmt"
	"testing"

	"tahoma/internal/nn"
	"tahoma/internal/tensor"
)

func TestGridEnumeration(t *testing.T) {
	specs := Grid([]int{1, 2, 4}, []int{16, 32}, []int{16, 32, 64}, 3)
	// 3 conv-layer options × 2 widths × 3 dense = 18 (no zero-layer rows).
	if len(specs) != 18 {
		t.Fatalf("grid size %d, want 18", len(specs))
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", s.ID(), err)
		}
		if seen[s.ID()] {
			t.Fatalf("duplicate spec %s", s.ID())
		}
		seen[s.ID()] = true
	}
}

func TestGridZeroConvCollapsesWidths(t *testing.T) {
	specs := Grid([]int{0}, []int{16, 32}, []int{8}, 3)
	if len(specs) != 1 {
		t.Fatalf("zero-conv grid should dedupe conv widths, got %d", len(specs))
	}
	if specs[0].ConvWidth != 0 {
		t.Fatal("zero-conv spec should zero the conv width")
	}
}

func TestMinInputSize(t *testing.T) {
	for _, tc := range []struct{ layers, want int }{{0, 2}, {1, 4}, {2, 8}, {3, 16}} {
		s := Spec{ConvLayers: tc.layers, ConvWidth: 4, DenseWidth: 4, Kernel: 3}
		if got := s.MinInputSize(); got != tc.want {
			t.Fatalf("MinInputSize(%d layers) = %d, want %d", tc.layers, got, tc.want)
		}
	}
}

func TestBuildShapes(t *testing.T) {
	s := Spec{ConvLayers: 2, ConvWidth: 4, DenseWidth: 8, Kernel: 3}
	net, err := s.Build(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	// conv(3->4) pool conv(4->4) pool: 4×4×4 features, dense(64->8), dense(8->1).
	requireParamShapes(t, net, [][]int{{4, 27}, {4}, {4, 36}, {4}, {8, 64}, {8}, {1, 8}, {1}})
	x := tensor.New(3, 16, 16)
	_ = net.Forward(x) // must not panic
}

func TestBuildRejectsTooSmallInput(t *testing.T) {
	s := Spec{ConvLayers: 3, ConvWidth: 4, DenseWidth: 8, Kernel: 3}
	if _, err := s.Build(1, 8); err == nil {
		t.Fatal("expected error: 8px input cannot survive 3 pools")
	}
}

func TestBuildZeroConvIsLogisticStyle(t *testing.T) {
	s := Spec{ConvLayers: 0, DenseWidth: 4, Kernel: 3}
	net, err := s.Build(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// dense(16->4) relu dense(4->1).
	requireParamShapes(t, net, [][]int{{4, 16}, {4}, {1, 4}, {1}})
}

// requireParamShapes holds net's parameters, in order, to want's shapes.
func requireParamShapes(t *testing.T, net *nn.Network, want [][]int) {
	t.Helper()
	ps := net.Params()
	if len(ps) != len(want) {
		t.Fatalf("%d parameter tensors, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if fmt.Sprint(p.Value.Shape) != fmt.Sprint(want[i]) {
			t.Fatalf("parameter %d has shape %v, want %v", i, p.Value.Shape, want[i])
		}
	}
}

func TestBuildInitDeterministic(t *testing.T) {
	s := Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3}
	a, err := s.BuildInit(3, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.BuildInit(3, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	c, err := s.BuildInit(3, 8, 78)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, w := range c.Weights() {
		if w != wa[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Spec{
		{ConvLayers: -1, DenseWidth: 4, Kernel: 3},
		{ConvLayers: 1, ConvWidth: 0, DenseWidth: 4, Kernel: 3},
		{ConvLayers: 1, ConvWidth: 4, DenseWidth: 0, Kernel: 3},
		{ConvLayers: 1, ConvWidth: 4, DenseWidth: 4, Kernel: 2},
		{ConvLayers: 1, ConvWidth: 4, DenseWidth: 4, Kernel: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: %+v should be invalid", i, s)
		}
	}
}

func TestIDStable(t *testing.T) {
	s := Spec{ConvLayers: 2, ConvWidth: 16, DenseWidth: 32, Kernel: 3}
	if s.ID() != "c2w16d32k3" {
		t.Fatalf("ID = %s", s.ID())
	}
}

package arch_test

import (
	"math"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/core"
	"tahoma/internal/xform"
)

// TestParamCountMatchesBuild: over the default and tiny design spaces — every
// architecture × transform pair, buildable or not, plus the deep reference —
// ParamCount fails exactly where Build does and otherwise equals the length
// of the built network's weight blob.
func TestParamCountMatchesBuild(t *testing.T) {
	for name, cfg := range map[string]core.Config{"default": core.DefaultConfig(), "tiny": core.TinyConfig()} {
		type pair struct {
			s arch.Spec
			t xform.Transform
		}
		pairs := []pair{{cfg.DeepSpec, cfg.DeepXform}}
		for _, tr := range xform.Grid(cfg.Sizes, cfg.Colors) {
			for _, s := range arch.Grid(cfg.ConvLayers, cfg.ConvWidths, cfg.DenseWidths, cfg.Kernel) {
				pairs = append(pairs, pair{s, tr})
			}
		}
		for _, p := range pairs {
			n, cerr := p.s.ParamCount(p.t.Channels(), p.t.Size)
			net, berr := p.s.Build(p.t.Channels(), p.t.Size)
			if (cerr == nil) != (berr == nil) {
				t.Fatalf("%s %s@%s: ParamCount error %v, Build error %v", name, p.s.ID(), p.t.ID(), cerr, berr)
			}
			if berr == nil && n != len(net.Weights()) {
				t.Fatalf("%s %s@%s: ParamCount %d, Build has %d weights", name, p.s.ID(), p.t.ID(), n, len(net.Weights()))
			}
		}
	}
}

// TestParamCountRejectsOverflow: specs and geometries whose parameter count
// passes math.MaxInt, or whose pooling depth no int-sized input survives, are
// errors rather than wrapped counts.
func TestParamCountRejectsOverflow(t *testing.T) {
	for _, tc := range []struct {
		s              arch.Spec
		channels, size int
	}{
		{arch.Spec{ConvLayers: 70, ConvWidth: 4, DenseWidth: 8, Kernel: 3}, 3, 64},
		{arch.Spec{ConvLayers: 70, ConvWidth: 4, DenseWidth: 8, Kernel: 3}, 3, math.MaxInt},
		{arch.Spec{DenseWidth: math.MaxInt, Kernel: 3}, 3, 2},
		{arch.Spec{DenseWidth: 8, Kernel: 3}, 3, math.MaxInt / 2},
		{arch.Spec{ConvLayers: 1, ConvWidth: math.MaxInt / 4, DenseWidth: 8, Kernel: 3}, 3, 4},
		{arch.Spec{ConvLayers: 1, ConvWidth: 1, DenseWidth: 8, Kernel: math.MaxInt}, 1, 4},
	} {
		if n, err := tc.s.ParamCount(tc.channels, tc.size); err == nil {
			t.Errorf("%s over %d×%d×%d: ParamCount = %d, want an error", tc.s.ID(), tc.channels, tc.size, tc.size, n)
		}
	}
}

package arch_test

import (
	"math"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/core"
	"tahoma/internal/xform"
)

// designPair is one architecture × transform pair of a design space, named
// "<space>/<spec>@<transform>".
type designPair struct {
	name string
	s    arch.Spec
	t    xform.Transform
}

// designPairs returns every pair of the default and tiny design spaces,
// buildable or not, plus each space's deep reference model.
func designPairs() []designPair {
	var pairs []designPair
	for _, space := range []struct {
		name string
		cfg  core.Config
	}{{"default", core.DefaultConfig()}, {"tiny", core.TinyConfig()}} {
		add := func(s arch.Spec, t xform.Transform) {
			pairs = append(pairs, designPair{space.name + "/" + s.ID() + "@" + t.ID(), s, t})
		}
		cfg := space.cfg
		add(cfg.DeepSpec, cfg.DeepXform)
		for _, tr := range xform.Grid(cfg.Sizes, cfg.Colors) {
			for _, s := range arch.Grid(cfg.ConvLayers, cfg.ConvWidths, cfg.DenseWidths, cfg.Kernel) {
				add(s, tr)
			}
		}
	}
	return pairs
}

// TestParamCountMatchesBuild: over the default and tiny design spaces — every
// architecture × transform pair, buildable or not, plus the deep reference —
// ParamCount fails exactly where Build does and otherwise equals the length
// of the built network's weight blob.
func TestParamCountMatchesBuild(t *testing.T) {
	for _, p := range designPairs() {
		n, cerr := p.s.ParamCount(p.t.Channels(), p.t.Size)
		net, berr := p.s.Build(p.t.Channels(), p.t.Size)
		if (cerr == nil) != (berr == nil) {
			t.Fatalf("%s: ParamCount error %v, Build error %v", p.name, cerr, berr)
		}
		if berr == nil && n != len(net.Weights()) {
			t.Fatalf("%s: ParamCount %d, Build has %d weights", p.name, n, len(net.Weights()))
		}
	}
}

// TestMACsMatchesTemplate: over TestParamCountMatchesBuild's pairs, the
// built network's MACs — the analytic inference cost every cascade is
// priced by — is the Figure 3 template's count computed from the spec
// alone: per conv block, H·W·filters·inC·K² at that block's input size
// (stride-1 "same" padding keeps H×W), then flat·dense for the hidden
// layer and dense for the output. A pair Build refuses has no count and
// must stay refused.
func TestMACsMatchesTemplate(t *testing.T) {
	for _, p := range designPairs() {
		t.Run(p.name, func(t *testing.T) {
			net, err := p.s.Build(p.t.Channels(), p.t.Size)
			if _, cerr := p.s.ParamCount(p.t.Channels(), p.t.Size); cerr != nil {
				if err == nil {
					t.Fatalf("Build accepted what ParamCount refuses: %v", cerr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			ch, sp, k := int64(p.t.Channels()), int64(p.t.Size), int64(p.s.Kernel)
			for i := 0; i < p.s.ConvLayers; i++ {
				want += sp * sp * int64(p.s.ConvWidth) * ch * k * k
				ch, sp = int64(p.s.ConvWidth), sp/2
			}
			dense := int64(p.s.DenseWidth)
			want += ch*sp*sp*dense + dense
			if got := net.MACs(); got != want {
				t.Fatalf("MACs = %d, template count %d", got, want)
			}
		})
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

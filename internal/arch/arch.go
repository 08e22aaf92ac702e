// Package arch implements the paper's model architecture specifications A:
// the CNN-hyperparameter half of TAHOMA's model design space. A Spec
// describes the Figure 3 template — alternating conv/max-pool blocks feeding
// a fully connected ReLU layer and a single sigmoid output — parameterized by
// the number of conv layers, conv width and dense width.
package arch

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"tahoma/internal/nn"
)

// Spec is one element of A: the internal architecture of a basic model.
type Spec struct {
	ConvLayers int `json:"conv_layers"` // number of conv+pool blocks (≥0; 0 = logistic regression on raw pixels)
	ConvWidth  int `json:"conv_width"`  // filters per conv layer
	DenseWidth int `json:"dense_width"` // nodes in the fully connected layer
	Kernel     int `json:"kernel"`      // conv kernel size (odd), typically 3
}

// ID returns a stable identifier such as "c2w16d32k3".
func (s Spec) ID() string {
	return fmt.Sprintf("c%dw%dd%dk%d", s.ConvLayers, s.ConvWidth, s.DenseWidth, s.Kernel)
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	if s.ConvLayers < 0 {
		return fmt.Errorf("arch: negative conv layers %d", s.ConvLayers)
	}
	if s.ConvLayers > 0 && s.ConvWidth <= 0 {
		return fmt.Errorf("arch: conv width must be positive, got %d", s.ConvWidth)
	}
	if s.DenseWidth <= 0 {
		return fmt.Errorf("arch: dense width must be positive, got %d", s.DenseWidth)
	}
	if s.Kernel <= 0 || s.Kernel%2 == 0 {
		return fmt.Errorf("arch: kernel must be odd and positive, got %d", s.Kernel)
	}
	return nil
}

// MinInputSize returns the smallest square input the spec can accept: each
// conv+pool block halves the spatial dims, which must stay ≥ 2.
func (s Spec) MinInputSize() int {
	size := 2
	for i := 0; i < s.ConvLayers; i++ {
		size *= 2
	}
	return size
}

// ParamCount returns how many float32 parameters Build(channels, size) would
// allocate, allocating nothing itself: the check a persisted weight blob is
// held to before any network is built from an untrusted spec. It fails on
// exactly the inputs Build rejects, and on a count past math.MaxInt.
func (s Spec) ParamCount(channels, size int) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if channels <= 0 {
		return 0, fmt.Errorf("arch: channel count must be positive, got %d", channels)
	}
	// size ≥ MinInputSize ⇔ the last block's output is still ≥ 2 wide;
	// halving instead of doubling cannot overflow.
	sp := size
	for i := 0; i < s.ConvLayers && sp >= 2; i++ {
		sp /= 2
	}
	if sp < 2 {
		return 0, fmt.Errorf("arch: input size %d too small for %d conv/pool blocks", size, s.ConvLayers)
	}
	var c checked
	ch := channels
	for i := 0; i < s.ConvLayers; i++ {
		c.add(c.mul(c.mul(c.mul(s.ConvWidth, ch), s.Kernel), s.Kernel), s.ConvWidth)
		ch = s.ConvWidth
	}
	flat := c.mul(c.mul(ch, sp), sp)
	c.add(c.mul(s.DenseWidth, flat), s.DenseWidth)
	c.add(s.DenseWidth, 1)
	if c.over {
		return 0, fmt.Errorf("arch: %s over %d×%d×%d has more than %d parameters", s.ID(), channels, size, size, math.MaxInt)
	}
	return c.n, nil
}

// checked accumulates a non-negative parameter count, latching over once
// any product or sum passes math.MaxInt.
type checked struct {
	n    int
	over bool
}

func (c *checked) mul(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt {
		c.over = true
	}
	return int(lo & math.MaxInt)
}

func (c *checked) add(terms ...int) {
	for _, v := range terms {
		if v > math.MaxInt-c.n {
			c.over = true
		}
		c.n = (c.n + v) & math.MaxInt
	}
}

// Build constructs an untrained network for a channels×size×size input
// following the Figure 3 template (nn.NewNetwork): ConvLayers blocks of
// ConvWidth filters with a Kernel×Kernel kernel, then a dense layer of
// DenseWidth units and the single logit, whose sigmoid lives in the
// loss/Predict. It fails exactly where ParamCount does.
func (s Spec) Build(channels, size int) (*nn.Network, error) {
	if _, err := s.ParamCount(channels, size); err != nil {
		return nil, err
	}
	blocks := make([][2]int, s.ConvLayers)
	for i := range blocks {
		blocks[i] = [2]int{s.ConvWidth, s.Kernel}
	}
	return nn.NewNetwork(channels, size, size, blocks, s.DenseWidth)
}

// BuildInit builds and initializes a network with the given seed, so that a
// (spec, transform, seed) triple always yields the same starting weights.
func (s Spec) BuildInit(channels, size int, seed int64) (*nn.Network, error) {
	net, err := s.Build(channels, size)
	if err != nil {
		return nil, err
	}
	net.Init(rand.New(rand.NewSource(seed)))
	return net, nil
}

// Grid returns the cross product of the hyperparameter options, mirroring
// Section VII-A (conv layers × conv nodes × dense nodes), sorted by a rough
// cost estimate then ID for determinism.
func Grid(convLayers, convWidths, denseWidths []int, kernel int) []Spec {
	var out []Spec
	for _, cl := range convLayers {
		if cl == 0 {
			// Without conv layers the conv width is meaningless; emit one
			// spec per dense width to avoid duplicates.
			for _, dw := range denseWidths {
				out = append(out, Spec{ConvLayers: 0, ConvWidth: 0, DenseWidth: dw, Kernel: kernel})
			}
			continue
		}
		for _, cw := range convWidths {
			for _, dw := range denseWidths {
				out = append(out, Spec{ConvLayers: cl, ConvWidth: cw, DenseWidth: dw, Kernel: kernel})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci := out[i].ConvLayers*1_000_000 + out[i].ConvWidth*1_000 + out[i].DenseWidth
		cj := out[j].ConvLayers*1_000_000 + out[j].ConvWidth*1_000 + out[j].DenseWidth
		if ci != cj {
			return ci < cj
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII) on the synthetic corpus. Each experiment is a
// method on Suite that prints the paper's rows/series and returns structured
// results; cmd/tahoma-bench and the repository-root benchmarks drive them.
//
// DESIGN.md carries the per-experiment index mapping each figure/table to
// the modules involved and the expected result shapes.
package experiments

import (
	"tahoma/internal/core"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
)

// Config scales the whole experiment suite.
type Config struct {
	// Predicates are the category names standing in for Table II.
	Predicates []string
	// Corpus sizing per predicate.
	BaseSize int
	TrainN   int
	ConfigN  int
	EvalN    int
	Augment  bool
	// Core is the TAHOMA design-space configuration.
	Core core.Config
	// MaxDepth is the cascade depth for the main experiments
	// (levels before the optional deep terminator).
	MaxDepth int
	// Params price the analytic cost models.
	Params scenario.Params
	// Seed drives corpus generation (per-predicate offsets applied).
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Stream sizing for the NoScope comparison (Figure 8).
	StreamSize   int
	StreamFrames int
	StreamHead   int // frames reserved for training both systems
}

// DefaultConfig reproduces the paper's shape at the scale this hardware
// trains in minutes: all 10 predicates, 64×64 sources, the full
// 4-size × 5-color × 8-arch grid.
func DefaultConfig() Config {
	cc := core.DefaultConfig()
	return Config{
		Predicates:   synth.CategoryNames(),
		BaseSize:     64,
		TrainN:       200,
		ConfigN:      120,
		EvalN:        240,
		Augment:      true,
		Core:         cc,
		MaxDepth:     2,
		Params:       scenario.DefaultParams(),
		Seed:         1,
		StreamSize:   32,
		StreamFrames: 1200,
		StreamHead:   600,
	}
}

// QuickConfig is a reduced suite for benchmarks and demos: three predicates
// (one per representation-sensitivity kind), 32×32 sources, a 3×5×4 grid.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Predicates = []string{"coho", "fence", "cloak"}
	cfg.BaseSize = 32
	cfg.TrainN = 120
	cfg.ConfigN = 80
	cfg.EvalN = 160
	cfg.Core.Sizes = []int{8, 16, 32}
	cfg.Core.ConvLayers = []int{1, 2}
	cfg.Core.ConvWidths = []int{4}
	cfg.Core.DenseWidths = []int{8, 16}
	cfg.Core.DeepSpec.ConvLayers = 3
	cfg.Core.DeepSpec.ConvWidth = 12
	cfg.Core.DeepXform.Size = 32
	cfg.Core.DeepEpochs = 8
	cfg.Params.SourceW = 32
	cfg.Params.SourceH = 32
	cfg.StreamSize = 32
	cfg.StreamFrames = 700
	cfg.StreamHead = 400
	return cfg
}

// TestConfig is the minimal suite used by unit tests: two predicates at
// 16×16 with the tiny core design space.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Predicates = []string{"cloak", "pinwheel"}
	cfg.BaseSize = 16
	cfg.TrainN = 100
	cfg.ConfigN = 40
	cfg.EvalN = 60
	cfg.Augment = false
	cfg.Core = core.TinyConfig()
	cfg.Params.SourceW = 16
	cfg.Params.SourceH = 16
	cfg.StreamSize = 16
	cfg.StreamFrames = 300
	cfg.StreamHead = 200
	return cfg
}

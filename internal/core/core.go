// Package core implements the paper's primary contribution: the TAHOMA
// optimizer. Given a labeled dataset for one binary contains_object
// predicate, system initialization (Figure 2) trains the full model design
// space A × F, calibrates per-model decision thresholds, scores every model
// once on the evaluation set, and compiles a cascade evaluator. At query
// time the system prices every candidate cascade under the deployment
// scenario's cost model, computes the Pareto-optimal set over accuracy and
// throughput, and selects the cascade matching the user's constraints.
package core

import (
	"fmt"

	"tahoma/internal/arch"
	"tahoma/internal/cascade"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/par"
	"tahoma/internal/pareto"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/thresh"
	"tahoma/internal/train"
	"tahoma/internal/xform"
	"tahoma/internal/zoo"
)

// Config controls the model design space and initialization effort. The
// zero value is unusable; start from DefaultConfig or TinyConfig.
type Config struct {
	// Sizes are the input resolutions of F (paper: 30/60/120/224; here a
	// ladder scaled to the synthetic corpus, e.g. 8/16/32/64).
	Sizes []int
	// Colors are the color variants of F.
	Colors []img.ColorMode
	// ConvLayers, ConvWidths, DenseWidths and Kernel define the
	// architecture grid A.
	ConvLayers  []int
	ConvWidths  []int
	DenseWidths []int
	Kernel      int
	// Deep configures the expensive reference classifier (the fine-tuned
	// ResNet50 analogue): the largest transform with a deeper spec,
	// trained for more epochs.
	DeepSpec   arch.Spec
	DeepXform  xform.Transform
	DeepEpochs int
	// PrecisionTargets are the threshold calibration targets
	// (paper: 0.91/0.93/0.95/0.97/0.99).
	PrecisionTargets []float64
	// ThreshGridSteps is the calibration grid resolution.
	ThreshGridSteps int
	// Train controls the fitting loop for grid models.
	Train train.Options
	// Workers bounds parallelism during initialization (0 = GOMAXPROCS).
	Workers int
	// Seed derives all model initializations.
	Seed int64
}

// DefaultConfig mirrors the paper's grid shape at the scale the synthetic
// corpus uses (64×64 sources): 4 sizes × 5 colors × (2·2·2 − duplicates)
// architectures, 3 precision targets.
func DefaultConfig() Config {
	return Config{
		Sizes:            []int{8, 16, 32, 64},
		Colors:           xform.AllColors,
		ConvLayers:       []int{1, 2},
		ConvWidths:       []int{4, 8},
		DenseWidths:      []int{8, 16},
		Kernel:           3,
		DeepSpec:         arch.Spec{ConvLayers: 3, ConvWidth: 16, DenseWidth: 32, Kernel: 3},
		DeepXform:        xform.Transform{Size: 64, Color: img.RGB},
		DeepEpochs:       8,
		PrecisionTargets: []float64{0.93, 0.95, 0.97},
		ThreshGridSteps:  100,
		Train:            train.Options{Epochs: 4, BatchSize: 16, LR: 0.004},
		Seed:             1,
	}
}

// TinyConfig is a minimal design space for tests: 2 sizes × 2 colors ×
// 2 archs on 16×16 sources.
func TinyConfig() Config {
	return Config{
		Sizes:            []int{8, 16},
		Colors:           []img.ColorMode{img.RGB, img.Gray},
		ConvLayers:       []int{0, 1},
		ConvWidths:       []int{4},
		DenseWidths:      []int{8},
		Kernel:           3,
		DeepSpec:         arch.Spec{ConvLayers: 2, ConvWidth: 8, DenseWidth: 16, Kernel: 3},
		DeepXform:        xform.Transform{Size: 16, Color: img.RGB},
		DeepEpochs:       12,
		PrecisionTargets: []float64{0.90, 0.95},
		ThreshGridSteps:  50,
		Train:            train.Options{Epochs: 3, BatchSize: 8, LR: 0.01},
		Seed:             1,
	}
}

// Validate reports configuration problems before expensive work starts.
func (c Config) Validate() error {
	if len(c.Sizes) == 0 || len(c.Colors) == 0 {
		return fmt.Errorf("core: empty transform grid")
	}
	if len(c.ConvLayers) == 0 || len(c.DenseWidths) == 0 {
		return fmt.Errorf("core: empty architecture grid")
	}
	if len(c.PrecisionTargets) == 0 {
		return fmt.Errorf("core: no precision targets")
	}
	for _, p := range c.PrecisionTargets {
		if p <= 0 || p > 1 {
			return fmt.Errorf("core: precision target %v out of (0,1]", p)
		}
	}
	if err := c.DeepSpec.Validate(); err != nil {
		return fmt.Errorf("core: deep spec: %w", err)
	}
	if err := c.DeepXform.Validate(); err != nil {
		return fmt.Errorf("core: deep transform: %w", err)
	}
	return nil
}

// System is an initialized TAHOMA instance for one binary predicate.
type System struct {
	Predicate string
	Config    Config

	// Models holds the trained design space; DeepIdx points at the
	// expensive reference classifier inside it.
	Models  []*model.Model
	DeepIdx int

	// Thresholds[i] are model i's calibrated settings, one per precision
	// target.
	Thresholds [][]thresh.Thresholds

	// EvalScores[i][j] is model i's output on evaluation image j.
	EvalScores [][]float32
	EvalTruth  []bool

	// Evaluator is the compiled bitset simulator over the eval set.
	Evaluator *cascade.Evaluator

	// TrainReports records per-model fitting outcomes.
	TrainReports []train.Report
}

// BuildModels constructs the untrained design space M = A × F plus the deep
// reference model (always last). Architecture/transform pairs whose input is
// too small for the architecture's pooling depth are skipped, so every
// returned model is buildable.
func BuildModels(cfg Config) ([]*model.Model, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	specs := arch.Grid(cfg.ConvLayers, cfg.ConvWidths, cfg.DenseWidths, cfg.Kernel)
	transforms := xform.Grid(cfg.Sizes, cfg.Colors)
	var models []*model.Model
	for _, t := range transforms {
		for _, s := range specs {
			if t.Size < s.MinInputSize() {
				continue
			}
			m, err := model.New(s, t, model.Basic, cfg.Seed)
			if err != nil {
				return nil, 0, err
			}
			models = append(models, m)
		}
	}
	if len(models) == 0 {
		return nil, 0, fmt.Errorf("core: design space is empty (all architectures too deep for all sizes)")
	}
	deep, err := model.New(cfg.DeepSpec, cfg.DeepXform, model.Deep, cfg.Seed)
	if err != nil {
		return nil, 0, fmt.Errorf("core: building deep model: %w", err)
	}
	models = append(models, deep)
	return models, len(models) - 1, nil
}

// Initialize runs the full system-initialization pipeline of Figure 2 on the
// given splits and returns a ready System.
func Initialize(predicate string, splits synth.Splits, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if splits.Train.Len() == 0 || splits.Config.Len() == 0 || splits.Eval.Len() == 0 {
		return nil, fmt.Errorf("core: all three splits must be non-empty (train=%d config=%d eval=%d)",
			splits.Train.Len(), splits.Config.Len(), splits.Eval.Len())
	}
	models, deepIdx, err := BuildModels(cfg)
	if err != nil {
		return nil, err
	}

	// 1. Model trainer: the grid and the deep model are jobs of one worker
	// pool (see trainJobs). The pool starts the deep model first, since it
	// is the long pole (about two thirds of a small zoo's install), and
	// fills the other workers with the grid, so every core trains until the
	// last model finishes. Each fit also spreads every minibatch over the
	// workers and adds the per-sample gradients in sample order, so the
	// weights are the same for any Workers.
	reports, err := train.All(trainJobs(cfg, models, deepIdx), splits.Train, cfg.Workers)
	if err != nil {
		return nil, err
	}

	sys := &System{
		Predicate:    predicate,
		Config:       cfg,
		Models:       models,
		DeepIdx:      deepIdx,
		TrainReports: reports,
	}

	// 2. Decision thresholds from the configuration set (Section V-C).
	configTruth := train.Labels(splits.Config)
	configScores := scoreAll(models, splits.Config, cfg.Workers)
	sys.Thresholds = make([][]thresh.Thresholds, len(models))
	for i := range models {
		ths, err := thresh.CalibrateAll(configScores[i], configTruth, cfg.PrecisionTargets, cfg.ThreshGridSteps)
		if err != nil {
			return nil, fmt.Errorf("core: calibrating %s: %w", models[i].ID(), err)
		}
		sys.Thresholds[i] = ths
	}

	// 3. Evaluation-set scoring, once per model (Section V-D).
	sys.EvalTruth = train.Labels(splits.Eval)
	sys.EvalScores = scoreAll(models, splits.Eval, cfg.Workers)

	// 4. Compile the cascade evaluator.
	ev, err := cascade.NewEvaluator(models, sys.EvalScores, sys.Thresholds, sys.EvalTruth)
	if err != nil {
		return nil, err
	}
	sys.Evaluator = ev
	return sys, nil
}

// trainJobs pairs every model of BuildModels with its fitting options: grid
// model i shuffles with Train.Seed+i, and the deep model keeps Train.Seed
// with its longer DeepEpochs schedule.
func trainJobs(cfg Config, models []*model.Model, deepIdx int) []train.Job {
	jobs := make([]train.Job, len(models))
	for i, m := range models {
		o := cfg.Train
		o.Seed += int64(i)
		if i == deepIdx {
			o.Seed, o.Epochs = cfg.Train.Seed, cfg.DeepEpochs
		}
		jobs[i] = train.Job{Model: m, Opts: o}
	}
	return jobs
}

// scoreAll scores every model over ds, parallelized across models. The
// models are dispatched last first: BuildModels puts the deep model, the
// slowest to score, last, and the grid's largest transforms just before it.
func scoreAll(models []*model.Model, ds synth.Dataset, workers int) [][]float32 {
	out := make([][]float32, len(models))
	_ = par.Do(len(models), workers, func(_, k int) error { // scoring never fails
		i := len(models) - 1 - k
		out[i] = train.Scores(models[i], ds)
		return nil
	})
	return out
}

// BuildOptions returns the paper's cascade enumeration for this system:
// one- and two-level cascades over the basic models, plus deep-terminated
// variants, with the deep model also eligible as a standalone final level.
func (s *System) BuildOptions(maxDepth int) cascade.BuildOptions {
	basic := make([]int, 0, len(s.Models)-1)
	for i := range s.Models {
		if i != s.DeepIdx {
			basic = append(basic, i)
		}
	}
	finals := append(append([]int(nil), basic...), s.DeepIdx)
	// NumThresh comes from the calibrated thresholds themselves, not the
	// config: a system restored from a persisted repository (FromRepo) may
	// carry a different caller-supplied Config than the one it was trained
	// with, and the enumeration must match what is actually calibrated.
	numThresh := len(s.Config.PrecisionTargets)
	if len(s.Thresholds) > 0 {
		numThresh = len(s.Thresholds[0])
	}
	return cascade.BuildOptions{
		LevelModels: basic,
		FinalModels: finals,
		NumThresh:   numThresh,
		MaxDepth:    maxDepth,
		AppendDeep:  true,
		DeepModel:   s.DeepIdx,
	}
}

// EvaluateCascades builds and evaluates the cascade set under a cost model,
// returning one result per cascade.
func (s *System) EvaluateCascades(opts cascade.BuildOptions, cm scenario.CostModel) ([]cascade.Result, error) {
	specs, err := cascade.Build(opts)
	if err != nil {
		return nil, err
	}
	ct := s.Evaluator.CompileCosts(cm)
	return s.Evaluator.EvaluateAll(specs, ct, s.Config.Workers), nil
}

// Points converts results into frontier points.
func Points(results []cascade.Result) []pareto.Point {
	pts := make([]pareto.Point, len(results))
	for i, r := range results {
		pts[i] = pareto.Point{Throughput: r.Throughput, Accuracy: r.Accuracy, Index: i}
	}
	return pts
}

// Constraints are the user's query-time requirements (Uacc / Uthru).
type Constraints struct {
	// MaxAccuracyLoss is the tolerable relative accuracy drop versus the
	// most accurate cascade available (Uacc).
	MaxAccuracyLoss float64
	// MinThroughput is a floor in classifications/sec (Uthru); 0 disables.
	MinThroughput float64
}

// Select picks the Pareto-optimal cascade matching the constraints: the
// fastest cascade within the accuracy budget, additionally honoring the
// throughput floor when one is given.
func Select(frontier []pareto.Point, c Constraints) (pareto.Point, error) {
	if c.MinThroughput > 0 {
		var eligible []pareto.Point
		for _, p := range frontier {
			if p.Throughput >= c.MinThroughput {
				eligible = append(eligible, p)
			}
		}
		if len(eligible) == 0 {
			return pareto.Point{}, fmt.Errorf("core: no cascade reaches %.1f/sec", c.MinThroughput)
		}
		frontier = eligible
	}
	return pareto.SelectByAccuracyLoss(frontier, c.MaxAccuracyLoss)
}

// Runtime materializes an executable cascade for a chosen result.
func (s *System) Runtime(spec cascade.Spec) (*cascade.Runtime, error) {
	return cascade.NewRuntime(spec, s.Models, s.Thresholds)
}

// Repo converts the system into a persistable model repository.
func (s *System) Repo() *zoo.Repo {
	r := &zoo.Repo{Predicate: s.Predicate, EvalTruth: s.EvalTruth}
	for i, m := range s.Models {
		r.Entries = append(r.Entries, zoo.Entry{
			Model:      m,
			Thresholds: s.Thresholds[i],
			EvalScores: s.EvalScores[i],
		})
	}
	return r
}

// FromRepo reconstructs a System (without training reports) from a persisted
// repository, re-compiling the cascade evaluator.
func FromRepo(r *zoo.Repo, cfg Config) (*System, error) {
	if len(r.Entries) == 0 {
		return nil, fmt.Errorf("core: repository has no models")
	}
	sys := &System{Predicate: r.Predicate, Config: cfg, DeepIdx: -1}
	for i, e := range r.Entries {
		sys.Models = append(sys.Models, e.Model)
		sys.Thresholds = append(sys.Thresholds, e.Thresholds)
		sys.EvalScores = append(sys.EvalScores, e.EvalScores)
		if e.Model.Kind == model.Deep {
			sys.DeepIdx = i
		}
	}
	if sys.DeepIdx == -1 {
		return nil, fmt.Errorf("core: repository has no deep reference model")
	}
	sys.EvalTruth = r.EvalTruth
	ev, err := cascade.NewEvaluator(sys.Models, sys.EvalScores, sys.Thresholds, sys.EvalTruth)
	if err != nil {
		return nil, err
	}
	sys.Evaluator = ev
	return sys, nil
}

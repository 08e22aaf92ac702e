package experiments

import (
	"fmt"
	"time"

	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/pareto"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
)

// Suite holds the initialized TAHOMA systems for every configured predicate.
// Initialization (training the design space) happens once; every experiment
// reuses the systems with different cost models and cascade sets, exactly as
// the paper's evaluation reuses its 360 models per predicate.
type Suite struct {
	Config  Config
	Systems []*core.System // parallel to Config.Predicates
	Splits  []synth.Splits
	InitDur time.Duration
}

// NewSuite generates the corpora and initializes one TAHOMA system per
// predicate. progress (optional) is called after each predicate completes.
func NewSuite(cfg Config, progress func(done, total int, predicate string)) (*Suite, error) {
	if len(cfg.Predicates) == 0 {
		return nil, fmt.Errorf("experiments: no predicates configured")
	}
	s := &Suite{Config: cfg}
	start := time.Now()
	for i, name := range cfg.Predicates {
		cat, err := synth.CategoryByName(name)
		if err != nil {
			return nil, err
		}
		splits, err := synth.GenerateBinary(cat, synth.Options{
			BaseSize: cfg.BaseSize,
			TrainN:   cfg.TrainN,
			ConfigN:  cfg.ConfigN,
			EvalN:    cfg.EvalN,
			Seed:     cfg.Seed + int64(i)*1000,
			Augment:  cfg.Augment,
		})
		if err != nil {
			return nil, err
		}
		cc := cfg.Core
		cc.Workers = cfg.Workers
		sys, err := core.Initialize("contains_object("+name+")", splits, cc)
		if err != nil {
			return nil, fmt.Errorf("experiments: initializing %s: %w", name, err)
		}
		s.Systems = append(s.Systems, sys)
		s.Splits = append(s.Splits, splits)
		if progress != nil {
			progress(i+1, len(cfg.Predicates), name)
		}
	}
	s.InitDur = time.Since(start)
	return s, nil
}

// costModel builds the deterministic analytic cost model for a scenario.
func (s *Suite) costModel(kind scenario.Kind) scenario.CostModel {
	cm, err := scenario.NewAnalytic(kind, s.Config.Params)
	if err != nil {
		// Params are validated at suite construction; reaching this is a
		// programming error.
		panic(err)
	}
	return cm
}

// evaluated is one predicate's cascade set under one cost model.
type evaluated struct {
	results  []cascade.Result
	points   []pareto.Point
	frontier []pareto.Point
}

// evaluate runs the standard cascade set for system i under the scenario.
func (s *Suite) evaluate(i int, kind scenario.Kind) (evaluated, error) {
	sys := s.Systems[i]
	results, err := sys.EvaluateCascades(sys.BuildOptions(s.Config.MaxDepth), s.costModel(kind))
	if err != nil {
		return evaluated{}, err
	}
	pts := core.Points(results)
	return evaluated{results: results, points: pts, frontier: pareto.Frontier(pts)}, nil
}

// evaluateOptions evaluates an explicit cascade set for system i.
func (s *Suite) evaluateOptions(i int, opts cascade.BuildOptions, kind scenario.Kind) (evaluated, error) {
	sys := s.Systems[i]
	results, err := sys.EvaluateCascades(opts, s.costModel(kind))
	if err != nil {
		return evaluated{}, err
	}
	pts := core.Points(results)
	return evaluated{results: results, points: pts, frontier: pareto.Frontier(pts)}, nil
}

// deepResult returns the reference classifier (ResNet50 analogue) evaluated
// as a single-model cascade for system i under the scenario.
func (s *Suite) deepResult(i int, kind scenario.Kind) cascade.Result {
	sys := s.Systems[i]
	spec := cascade.Spec{Depth: 1}
	spec.L[0] = cascade.LevelRef{Model: int32(sys.DeepIdx), Thresh: cascade.Final}
	ct := sys.Evaluator.CompileCosts(s.costModel(kind))
	return sys.Evaluator.Evaluate(spec, ct, sys.Evaluator.NewScratch())
}

// baselineOptions reproduces the paper's Baseline cascade set for system i:
// two-level cascades whose first level is a full-resolution, full-color
// model and whose terminator is the expensive reference classifier — the
// NoScope-style design space without input transformations — plus the
// reference classifier alone.
func (s *Suite) baselineOptions(i int) cascade.BuildOptions {
	sys := s.Systems[i]
	var fullRes []int
	for idx, m := range sys.Models {
		if idx == sys.DeepIdx {
			continue
		}
		if m.Xform.Size == s.Config.BaseSize && m.Xform.Color == img.RGB {
			fullRes = append(fullRes, idx)
		}
	}
	return cascade.BuildOptions{
		LevelModels: fullRes,
		FinalModels: []int{sys.DeepIdx},
		NumThresh:   len(sys.Config.PrecisionTargets),
		MaxDepth:    1,
		AppendDeep:  true,
		DeepModel:   sys.DeepIdx,
	}
}

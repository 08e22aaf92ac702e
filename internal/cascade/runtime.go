package cascade

import (
	"context"
	"fmt"
	"sync"

	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/thresh"
)

// RuntimeLevel is one executable cascade stage.
type RuntimeLevel struct {
	Model      *model.Model
	Thresholds thresh.Thresholds
	Last       bool // accept at 0.5 instead of consulting thresholds
}

// Runtime is an executable cascade used by the query processor. It is a
// thin adapter over the exec engine, which plans the physical-
// representation transform sharing once per cascade and executes frames in
// worker-parallel batches; levels sharing a representation pay its creation
// cost only once per frame, matching the evaluator's cost accounting.
type Runtime struct {
	Levels []RuntimeLevel

	engOnce sync.Once
	engine  *exec.Engine
	engErr  error
}

// NewRuntime binds a Spec to concrete models and thresholds. Models must be
// the same slice (ordering) the Spec was enumerated against.
func NewRuntime(s Spec, models []*model.Model, ths [][]thresh.Thresholds) (*Runtime, error) {
	numThresh := 0
	if len(ths) > 0 {
		numThresh = len(ths[0])
	}
	if err := s.Validate(len(models), numThresh); err != nil {
		return nil, err
	}
	rt := &Runtime{}
	for i := int32(0); i < s.Depth; i++ {
		ref := s.L[i]
		lv := RuntimeLevel{Model: models[ref.Model], Last: ref.Thresh == Final}
		if !lv.Last {
			lv.Thresholds = ths[ref.Model][ref.Thresh]
		}
		rt.Levels = append(rt.Levels, lv)
	}
	if _, err := rt.Engine(); err != nil {
		return nil, err
	}
	return rt, nil
}

// Engine returns the runtime's single-cascade execution engine, building it
// on first use for manually-assembled runtimes (goroutine-safe).
func (rt *Runtime) Engine() (*exec.Engine, error) {
	rt.engOnce.Do(func() { rt.engine, rt.engErr = NewEngine(rt) })
	return rt.engine, rt.engErr
}

// NewEngine plans one execution engine over several runtimes' cascades: one
// global representation-slot plan spanning all of them, so a transform
// shared by two predicates is materialized once per frame for the whole
// set. The query executor runs the content predicates it fuses this way.
func NewEngine(rts ...*Runtime) (*exec.Engine, error) {
	cascades := make([][]exec.Level, len(rts))
	for i, rt := range rts {
		if len(rt.Levels) == 0 {
			return nil, fmt.Errorf("cascade: empty runtime")
		}
		cascades[i] = make([]exec.Level, len(rt.Levels))
		for l, lv := range rt.Levels {
			cascades[i][l] = exec.Level{Model: lv.Model, Thresholds: lv.Thresholds, Last: lv.Last}
		}
	}
	return exec.New(cascades...)
}

// Classify runs the cascade on a full-size source image, returning the
// binary label. The trace reports executed levels and materialized
// representations.
func (rt *Runtime) Classify(src *img.Image) (bool, exec.Trace, error) {
	eng, err := rt.Engine()
	if err != nil {
		return false, exec.Trace{}, err
	}
	return eng.ClassifyOne(0, src)
}

// ClassifyBatchContext labels a batch of source images across the engine's
// worker pool, returning the full execution report (labels — Labels[0], the
// runtime's one cascade — plus per-batch stats). Labels are bit-identical to
// per-image Classify calls at every worker count and batch size. The engine
// checks ctx between batches and levels, and a cancelled run returns ctx's
// error with a partial report (Cancelled set) whose labels must not be used.
func (rt *Runtime) ClassifyBatchContext(ctx context.Context, srcs []*img.Image, opts exec.Options) (*exec.Report, error) {
	eng, err := rt.Engine()
	if err != nil {
		return nil, err
	}
	return eng.RunContext(ctx, exec.Frames(srcs), nil, opts)
}

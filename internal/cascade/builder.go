package cascade

import (
	"fmt"

	"tahoma/internal/bitset"
	"tahoma/internal/par"
)

// BuildOptions controls cascade-set enumeration (Section V-D / VII-A).
//
// The generated set contains, for every depth d in 1..MaxDepth:
//
//	(level models × threshold settings)^(d-1) × (final models)
//
// and, when AppendDeep is set, the same prefixes terminated by the deep
// reference model (the paper's "+ ResNet50" variants, Fig 11).
type BuildOptions struct {
	// LevelModels are the model indices eligible for non-final levels.
	LevelModels []int
	// FinalModels are the model indices eligible for the final level.
	FinalModels []int
	// NumThresh is the number of calibrated threshold settings per model.
	NumThresh int
	// MaxDepth is the largest cascade depth to emit, counting the final
	// level but not a deep terminator appended via AppendDeep.
	MaxDepth int
	// AppendDeep additionally emits every enumerated prefix (of depth
	// 1..MaxDepth, thresholded) terminated by DeepModel.
	AppendDeep bool
	// DeepModel is the model index of the deep terminator.
	DeepModel int
	// Limit aborts enumeration if the total would exceed it (0 = no limit).
	Limit int
}

func (o BuildOptions) validate() error {
	if len(o.LevelModels) == 0 && o.MaxDepth > 1 {
		return fmt.Errorf("cascade: no level models for depth > 1")
	}
	if len(o.FinalModels) == 0 && !o.AppendDeep {
		return fmt.Errorf("cascade: no final models")
	}
	if o.NumThresh <= 0 && o.MaxDepth > 1 {
		return fmt.Errorf("cascade: NumThresh must be positive for multi-level cascades")
	}
	if o.MaxDepth < 1 || o.MaxDepth > MaxLevels {
		return fmt.Errorf("cascade: MaxDepth %d out of [1,%d]", o.MaxDepth, MaxLevels)
	}
	if o.AppendDeep && o.DeepModel < 0 {
		return fmt.Errorf("cascade: AppendDeep set but DeepModel negative")
	}
	if o.AppendDeep && o.MaxDepth+1 > MaxLevels {
		return fmt.Errorf("cascade: MaxDepth %d + deep terminator exceeds %d levels", o.MaxDepth, MaxLevels)
	}
	return nil
}

// deepInFinals reports whether the deep terminator is already reachable via
// the normal enumeration (in which case AppendDeep only contributes its
// deepest, otherwise-unreachable variants).
func (o BuildOptions) deepInFinals() bool {
	if !o.AppendDeep {
		return false
	}
	for _, f := range o.FinalModels {
		if f == o.DeepModel {
			return true
		}
	}
	return false
}

// appendDeepDepths returns the thresholded-prefix lengths the AppendDeep
// pass emits without duplicating the normal enumeration: when the deep model
// is already a FinalModels candidate, prefixes shorter than MaxDepth are
// covered; otherwise all lengths 1..MaxDepth are new.
func (o BuildOptions) appendDeepDepths() []int {
	if !o.AppendDeep {
		return nil
	}
	var out []int
	for d := 1; d <= o.MaxDepth; d++ {
		if o.deepInFinals() && d < o.MaxDepth {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Count returns the number of cascades the options enumerate.
func Count(o BuildOptions) (int, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	variants := len(o.LevelModels) * o.NumThresh
	total := 0
	prefix := 1 // (models×thresholds)^(d-1)
	for d := 1; d <= o.MaxDepth; d++ {
		total += prefix * len(o.FinalModels)
		prefix *= variants
	}
	for _, d := range o.appendDeepDepths() {
		n := 1
		for i := 0; i < d; i++ {
			n *= variants
		}
		total += n
	}
	return total, nil
}

// ForEach enumerates every cascade in a deterministic order, invoking fn for
// each. Enumeration is depth-major, then lexicographic by level.
func ForEach(o BuildOptions, fn func(Spec)) error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.Limit > 0 {
		n, err := Count(o)
		if err != nil {
			return err
		}
		if n > o.Limit {
			return fmt.Errorf("cascade: enumeration would produce %d cascades, over limit %d", n, o.Limit)
		}
	}
	// Recursively fill the thresholded prefix (depth-1 levels), then
	// closes with each eligible final model.
	var emit func(depth int, prefixLen int, spec *Spec)
	emit = func(depth, prefixLen int, spec *Spec) {
		if prefixLen == depth-1 {
			for _, fm := range o.FinalModels {
				s := *spec
				s.Depth = int32(depth)
				s.L[depth-1] = LevelRef{Model: int32(fm), Thresh: Final}
				fn(s)
			}
			return
		}
		for _, lm := range o.LevelModels {
			for t := 0; t < o.NumThresh; t++ {
				spec.L[prefixLen] = LevelRef{Model: int32(lm), Thresh: int32(t)}
				emit(depth, prefixLen+1, spec)
			}
		}
	}
	for d := 1; d <= o.MaxDepth; d++ {
		var spec Spec
		emit(d, 0, &spec)
	}
	// Deep-terminated variants not covered by the normal enumeration.
	var walk func(prefixLen, want int, spec *Spec)
	walk = func(prefixLen, want int, spec *Spec) {
		if prefixLen == want {
			s := *spec
			s.Depth = int32(want + 1)
			s.L[want] = LevelRef{Model: int32(o.DeepModel), Thresh: Final}
			fn(s)
			return
		}
		for _, lm := range o.LevelModels {
			for t := 0; t < o.NumThresh; t++ {
				spec.L[prefixLen] = LevelRef{Model: int32(lm), Thresh: int32(t)}
				walk(prefixLen+1, want, spec)
			}
		}
	}
	for _, d := range o.appendDeepDepths() {
		var spec Spec
		walk(0, d, &spec)
	}
	return nil
}

// Build materializes the enumeration into a slice.
func Build(o BuildOptions) ([]Spec, error) {
	n, err := Count(o)
	if err != nil {
		return nil, err
	}
	if o.Limit > 0 && n > o.Limit {
		return nil, fmt.Errorf("cascade: enumeration would produce %d cascades, over limit %d", n, o.Limit)
	}
	out := make([]Spec, 0, n)
	if err := ForEach(o, func(s Spec) { out = append(out, s) }); err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateAll evaluates every spec under the cost table, sharding across
// workers (GOMAXPROCS when workers <= 0) in contiguous chunks, one scratch
// per worker. Results are in spec order.
func (e *Evaluator) EvaluateAll(specs []Spec, ct *CostTable, workers int) []Result {
	results := make([]Result, len(specs))
	workers = par.Workers(workers, len(specs))
	chunk := (len(specs) + workers - 1) / workers
	scratch := make([]*bitset.Set, workers)
	_ = par.Do(workers, workers, func(w, c int) error { // evaluation never fails
		if scratch[w] == nil {
			scratch[w] = e.NewScratch()
		}
		for i := c * chunk; i < min((c+1)*chunk, len(specs)); i++ {
			results[i] = e.Evaluate(specs[i], ct, scratch[w])
		}
		return nil
	})
	return results
}

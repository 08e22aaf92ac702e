// Package cascade implements TAHOMA's classifier cascades (Definition 7):
// their construction from the model design space (Section V-D), their exact
// evaluation on held-out data under a deployment cost model, and their real
// execution path used at query time.
//
// The evaluator exploits the independence of per-model outputs and decision
// thresholds: every model is scored once on the evaluation set, decisions
// are compiled into bitsets, and each of the potentially millions of
// cascades is then simulated with a handful of word-parallel bit operations.
// Data-handling costs follow Section VI: the cost to create a physical
// representation is charged only once per image even when several cascade
// levels consume the same representation.
package cascade

import (
	"fmt"
	"strings"

	"tahoma/internal/bitset"
	"tahoma/internal/model"
	"tahoma/internal/scenario"
	"tahoma/internal/thresh"
)

// MaxLevels bounds cascade depth. The paper finds depth beyond
// two-levels-plus-terminator adds negligible frontier improvement (Fig 11).
const MaxLevels = 4

// Final marks a level that accepts its model's output unconditionally at the
// 0.5 cutoff (the last classifier of Definition 7).
const Final = int32(-1)

// LevelRef identifies one cascade level: a model index and a threshold-set
// index (or Final).
type LevelRef struct {
	Model  int32
	Thresh int32
}

// Spec is a compact, allocation-free cascade description.
type Spec struct {
	Depth int32
	L     [MaxLevels]LevelRef
}

// Levels returns the active level references.
func (s Spec) Levels() []LevelRef { return s.L[:s.Depth] }

// ID renders a stable identifier such as "m3.t1|m17.t0|m42.F".
func (s Spec) ID() string {
	var b strings.Builder
	for i := int32(0); i < s.Depth; i++ {
		if i > 0 {
			b.WriteByte('|')
		}
		ref := s.L[i]
		if ref.Thresh == Final {
			fmt.Fprintf(&b, "m%d.F", ref.Model)
		} else {
			fmt.Fprintf(&b, "m%d.t%d", ref.Model, ref.Thresh)
		}
	}
	return b.String()
}

// Describe renders a human-readable form using model identities.
func (s Spec) Describe(models []*model.Model) string {
	var b strings.Builder
	for i := int32(0); i < s.Depth; i++ {
		if i > 0 {
			b.WriteString(" -> ")
		}
		ref := s.L[i]
		b.WriteString(models[ref.Model].ID())
		if ref.Thresh != Final {
			fmt.Fprintf(&b, "[t%d]", ref.Thresh)
		}
	}
	return b.String()
}

// Validate checks structural invariants: depth within bounds, all non-last
// levels thresholded, last level Final.
func (s Spec) Validate(numModels, numThresh int) error {
	if s.Depth < 1 || s.Depth > MaxLevels {
		return fmt.Errorf("cascade: depth %d out of [1,%d]", s.Depth, MaxLevels)
	}
	for i := int32(0); i < s.Depth; i++ {
		ref := s.L[i]
		if ref.Model < 0 || int(ref.Model) >= numModels {
			return fmt.Errorf("cascade: level %d references model %d of %d", i, ref.Model, numModels)
		}
		last := i == s.Depth-1
		if last {
			if ref.Thresh != Final {
				return fmt.Errorf("cascade: last level must be Final, got threshold %d", ref.Thresh)
			}
		} else if ref.Thresh < 0 || int(ref.Thresh) >= numThresh {
			return fmt.Errorf("cascade: level %d threshold %d out of [0,%d)", i, ref.Thresh, numThresh)
		}
	}
	return nil
}

// Evaluator evaluates cascade specs against precomputed per-model outputs on
// the evaluation set. Build one per (predicate, evaluation set); it is safe
// for concurrent use via EvaluateAll's internal sharding, and Evaluate with
// an explicit scratch set.
type Evaluator struct {
	n      int
	models []*model.Model
	ths    [][]thresh.Thresholds
	truth  *bitset.Set

	levels [][]levelEval // [model][threshIdx]
	finals []finalEval   // [model]
}

type levelEval struct {
	uncertain      *bitset.Set // images the (model, thresholds) pair passes on
	certainCorrect *bitset.Set // confidently decided AND correct
}

type finalEval struct {
	correct *bitset.Set // (score >= 0.5) == truth
}

// NewEvaluator compiles bitset decision tables. scores[m][i] is model m's
// probability output on evaluation image i; ths[m] lists model m's
// calibrated threshold settings (all models must have the same count);
// truth[i] is the ground-truth label.
func NewEvaluator(models []*model.Model, scores [][]float32, ths [][]thresh.Thresholds, truth []bool) (*Evaluator, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("cascade: no models")
	}
	if len(scores) != len(models) || len(ths) != len(models) {
		return nil, fmt.Errorf("cascade: got %d models, %d score rows, %d threshold rows",
			len(models), len(scores), len(ths))
	}
	n := len(truth)
	if n == 0 {
		return nil, fmt.Errorf("cascade: empty evaluation set")
	}
	numThresh := len(ths[0])
	e := &Evaluator{
		n:      n,
		models: models,
		ths:    ths,
		truth:  bitset.New(n),
		levels: make([][]levelEval, len(models)),
		finals: make([]finalEval, len(models)),
	}
	for i, t := range truth {
		if t {
			e.truth.Set(i)
		}
	}
	for m := range models {
		if len(scores[m]) != n {
			return nil, fmt.Errorf("cascade: model %d has %d scores for %d eval images", m, len(scores[m]), n)
		}
		if len(ths[m]) != numThresh {
			return nil, fmt.Errorf("cascade: model %d has %d threshold settings, want %d", m, len(ths[m]), numThresh)
		}
		fin := finalEval{correct: bitset.New(n)}
		for i, s := range scores[m] {
			if (s >= 0.5) == truth[i] {
				fin.correct.Set(i)
			}
		}
		e.finals[m] = fin
		row := make([]levelEval, numThresh)
		for t, th := range ths[m] {
			le := levelEval{uncertain: bitset.New(n), certainCorrect: bitset.New(n)}
			for i, s := range scores[m] {
				decided, positive := th.Decide(s)
				if !decided {
					le.uncertain.Set(i)
				} else if positive == truth[i] {
					le.certainCorrect.Set(i)
				}
			}
			row[t] = le
		}
		e.levels[m] = row
	}
	return e, nil
}

// N returns the evaluation-set size.
func (e *Evaluator) N() int { return e.n }

// NumThresh returns the number of threshold settings per model.
func (e *Evaluator) NumThresh() int { return len(e.ths[0]) }

// Models returns the model slice the evaluator was built over.
func (e *Evaluator) Models() []*model.Model { return e.models }

// Thresholds returns the per-model calibrated threshold settings.
func (e *Evaluator) Thresholds() [][]thresh.Thresholds { return e.ths }

// CostTable is a scenario cost model compiled against the evaluator's
// models, so the hot evaluation loop does only array lookups.
type CostTable struct {
	Name   string
	Source float64
	Infer  []float64 // per model: one inference
	Rep    []float64 // per model: creating/loading its representation once
	RepIdx []int32   // per model: dense representation identity for dedup
}

// CompileCosts prices every model under cm.
func (e *Evaluator) CompileCosts(cm scenario.CostModel) *CostTable {
	ct := &CostTable{
		Name:   cm.Name(),
		Source: cm.SourceCost(),
		Infer:  make([]float64, len(e.models)),
		Rep:    make([]float64, len(e.models)),
		RepIdx: make([]int32, len(e.models)),
	}
	repIDs := make(map[string]int32)
	for i, m := range e.models {
		ct.Infer[i] = cm.InferCost(m)
		ct.Rep[i] = cm.RepCost(m.Xform)
		id := m.Xform.ID()
		idx, ok := repIDs[id]
		if !ok {
			idx = int32(len(repIDs))
			repIDs[id] = idx
		}
		ct.RepIdx[i] = idx
	}
	return ct
}

// Result is one evaluated cascade.
type Result struct {
	Spec       Spec
	Accuracy   float64
	AvgCost    float64 // average per-image t_classify in seconds
	Throughput float64 // 1/AvgCost
}

// Evaluate simulates one cascade exactly over the evaluation set. scratch
// must be a bitset of length N (see NewScratch); it is clobbered. Each cost
// product is rounded before it is added (an explicit conversion, which no
// GOARCH may fuse), so arm64 prices every frontier point as amd64 does.
func (e *Evaluator) Evaluate(s Spec, ct *CostTable, scratch *bitset.Set) Result {
	reached := scratch
	reached.SetAll()
	nr := e.n
	correct := 0
	cost := float64(e.n) * ct.Source
	for k := int32(0); k < s.Depth && nr > 0; k++ {
		ref := s.L[k]
		cost += float64(float64(nr) * ct.Infer[ref.Model])
		// Charge the representation only on its first use in the cascade
		// (Section VI: per-input costs are incurred once).
		rid := ct.RepIdx[ref.Model]
		first := true
		for j := int32(0); j < k; j++ {
			if ct.RepIdx[s.L[j].Model] == rid {
				first = false
				break
			}
		}
		if first {
			cost += float64(float64(nr) * ct.Rep[ref.Model])
		}
		if ref.Thresh == Final {
			correct += reached.AndCount(e.finals[ref.Model].correct)
			nr = 0
			break
		}
		le := e.levels[ref.Model][ref.Thresh]
		correct += reached.AndCount(le.certainCorrect)
		reached.And(le.uncertain)
		nr = reached.Count()
	}
	avg := cost / float64(e.n)
	res := Result{
		Spec:     s,
		Accuracy: float64(correct) / float64(e.n),
		AvgCost:  avg,
	}
	if avg > 0 {
		res.Throughput = 1 / avg
	}
	return res
}

// NewScratch returns a scratch bitset usable with Evaluate.
func (e *Evaluator) NewScratch() *bitset.Set { return bitset.New(e.n) }

package vdb

import (
	"fmt"
	"slices"
	"strings"

	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/matstore"
	"tahoma/internal/planner"
	"tahoma/internal/scenario"
)

// contentStep is one planned content-predicate evaluation.
type contentStep struct {
	cond     ContentCond
	pred     *Predicate
	spec     cascade.Spec
	rt       *cascade.Runtime // spec's executable form, shared across statements
	expected cascade.Result   // evaluator's estimate for the chosen cascade
	// col indexes queryPlan.keys: steps that name the same (predicate,
	// cascade) — X AND NOT X — share one column, so they are one
	// classification, not two.
	col int
}

// queryPlan is the executable form of a query against the read state it was
// planned on: metadata filters first, compiled to typed comparisons (in
// textual order — they are evaluated together, block by block), then content
// predicates in the order the cost-based planner chose (rank = cost /
// (1 − selectivity), ascending), each only over surviving rows. pp is the
// planner's costed, explainable view of the same content steps.
//
// A plan is never written once planned. A plan that ran without classifying
// is kept in its state's plan table (see planTable), and statements running
// at once share it, so execute and classifyMissing keep everything a
// statement changes — its live set, its overlay columns, its result — in
// their own variables.
type queryPlan struct {
	st      *readState
	query   *Query
	filters []metaFilter   // parallel to query.Meta
	project []int          // metadata column indexes to emit (nil for COUNT(*))
	content []contentStep  // planner execution order
	keys    []matstore.Key // the distinct materialized columns content reads
	pp      *planner.Plan  // parallel to content
}

// plan validates and plans q against st. Every way a statement can be wrong
// — unknown table, column or predicate, a literal of the wrong type, a
// constraint no cascade meets — is found here, before any row is read.
func (st *readState) plan(q *Query, constraints core.Constraints) (*queryPlan, error) {
	if q.Table != "images" {
		return nil, fmt.Errorf("vdb: unknown table %q (only 'images')", q.Table)
	}
	plan := &queryPlan{st: st, query: q}
	switch {
	case q.CountStar:
	case q.Star:
		plan.project = []int{colID, colLocation, colCamera, colTS}
	default:
		for _, c := range q.Columns {
			col, err := metaColumn(c)
			if err != nil {
				return nil, err
			}
			plan.project = append(plan.project, col)
		}
	}
	for _, mc := range q.Meta {
		f, err := compileFilter(mc, &st.meta)
		if err != nil {
			return nil, err
		}
		plan.filters = append(plan.filters, f)
	}
	var textual []contentStep
	var steps []planner.Step
	for i, cc := range q.Content {
		pred, ok := st.predicates[cc.Category]
		if !ok {
			return nil, fmt.Errorf("vdb: no classifier installed for category %q (installed: %s)",
				cc.Category, strings.Join(st.predicateNames(), ", "))
		}
		point, err := core.Select(pred.Frontier, constraints)
		if err != nil {
			return nil, fmt.Errorf("vdb: selecting cascade for %q: %w", cc.Category, err)
		}
		res := pred.Results[point.Index]
		// Select picks a frontier point, and install built every one.
		c := pred.installed[point.Index]
		col := slices.Index(plan.keys, c.key)
		if col < 0 {
			col = len(plan.keys)
			plan.keys = append(plan.keys, c.key)
		}
		textual = append(textual, contentStep{cond: cc, pred: pred, spec: res.Spec, rt: c.rt, expected: res, col: col})
		steps = append(steps, st.plannerStep(i, cc, pred, res, c))
	}
	plan.pp = planner.PlanContent(steps, st.availability(), planner.Options{Rows: st.n, CostModel: st.costModel.Name()})
	plan.content = make([]contentStep, len(plan.pp.Steps))
	for k, ps := range plan.pp.Steps {
		plan.content[k] = textual[ps.Input]
	}
	return plan, nil
}

// coverage is how many of st's rows key's column holds labels for, as the
// planner and EXPLAIN count it: zero with materialization off, and never
// more than the rows this state can see (a persisted column can outlive a
// shrunken view of its corpus).
func (st *readState) coverage(key matstore.Key) int {
	if st.matMode == MatOff {
		return 0
	}
	return min(st.cols.Get(key).Coverage(), st.n)
}

// plannerStep decomposes one chosen cascade into the planner's costed form:
// its per-level costs as install built them, the adaptive selectivity
// estimate, and the materialized-column coverage.
func (st *readState) plannerStep(input int, cc ContentCond, pred *Predicate, res cascade.Result, c *installedCascade) planner.Step {
	ps := planner.Step{
		Input:      input,
		Key:        pred.Category,
		CascadeID:  c.key.Cascade,
		Negated:    cc.Negated,
		SourceCost: st.costModel.SourceCost(),
		TotalRows:  st.n,
		CachedRows: st.coverage(c.key),
		Levels:     c.levels,
	}
	ps.Selectivity, ps.SelSamples = st.catalog.Selectivity(pred.Category)
	return ps
}

// levelCosts is spec's per-level representation and inference cost under
// cm, at the evaluator's exact level occupancies. Plans share it and the
// planner only reads it.
func levelCosts(sys *core.System, spec cascade.Spec, cm scenario.CostModel) ([]planner.LevelCost, error) {
	occ, err := sys.Evaluator.Occupancy(spec)
	if err != nil {
		return nil, err
	}
	evalN := float64(sys.Evaluator.N())
	levels := make([]planner.LevelCost, 0, len(occ))
	for i, ref := range spec.Levels() {
		m := sys.Models[ref.Model]
		levels = append(levels, planner.LevelCost{
			RepID:     m.Xform.ID(),
			RepCost:   cm.RepCost(m.Xform),
			InferCost: cm.InferCost(m),
			Occupancy: float64(occ[i].Reached) / evalN,
		})
	}
	return levels, nil
}

// availability snapshots plan-time physical-representation residency over
// the pinned store view: the transforms it serves and a sampled
// record-residency estimate over the record cache, which has its own lock.
func (st *readState) availability() planner.Availability {
	view, ok := st.corpus.(*storeView)
	if !ok {
		return planner.Availability{}
	}
	av := planner.Availability{SourceResidentFrac: planner.SampleFrac(st.n, view.sc.cache.HasSource)}
	if st.serveReps {
		av.Served = view.HasRep
	}
	return av
}

// describe renders the plan.
func (p *queryPlan) describe() string {
	st := p.st
	var b strings.Builder
	fmt.Fprintf(&b, "Scan images (%d rows)\n", st.n)
	for _, mc := range p.query.Meta {
		fmt.Fprintf(&b, "  Filter: %s %s %s\n", mc.Column, mc.Op, mc.Val)
	}
	for k, cs := range p.content {
		ps := &p.pp.Steps[k]
		neg := ""
		if cs.cond.Negated {
			neg = "NOT "
		}
		fmt.Fprintf(&b, "  UDF: %scontains_object(%s) via cascade [%s]\n", neg, cs.cond.Category,
			cs.spec.Describe(cs.pred.System.Models))
		fmt.Fprintf(&b, "       est. accuracy %.3f, est. throughput %.0f imgs/sec (%s)\n",
			cs.expected.Accuracy, cs.expected.Throughput, st.costModel.Name())
		fmt.Fprintf(&b, "       %s\n", ps.CostLine())
		if n := st.coverage(p.keys[cs.col]); n >= st.n && n > 0 {
			b.WriteString("       (materialized: no inference needed)\n")
		} else if n > 0 {
			fmt.Fprintf(&b, "       (partially materialized: %d/%d rows cached)\n", n, st.n)
		}
	}
	if line := p.pp.OrderLine(); line != "" {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	if p.query.Limit > 0 {
		fmt.Fprintf(&b, "  Limit %d\n", p.query.Limit)
	}
	switch {
	case p.query.CountStar:
		b.WriteString("  Project COUNT(*)\n")
	case p.query.Star:
		fmt.Fprintf(&b, "  Project %s\n", strings.Join(metaColumns, ", "))
	default:
		fmt.Fprintf(&b, "  Project %s\n", strings.Join(p.query.Columns, ", "))
	}
	return b.String()
}

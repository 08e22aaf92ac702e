package vdb

import (
	"context"
	"fmt"
	"strings"

	"tahoma/internal/bitset"
	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/planner"
)

// contentStep is one planned content-predicate evaluation.
type contentStep struct {
	cond     ContentCond
	pred     *Predicate
	spec     cascade.Spec
	expected cascade.Result // evaluator's estimate for the chosen cascade
}

// queryPlan is the executable form of a query: metadata filters first (in
// selectivity-free textual order — the corpus is in memory, so ordering
// within the metadata set is immaterial), then content predicates in the
// order the cost-based planner chose (rank = cost / (1 − selectivity) by
// default, evaluator-cheapest-first under OrderStatic), each only over
// surviving rows. pp is the planner's costed, explainable view of the same
// content steps, including the fused-vs-sequential decision.
type queryPlan struct {
	query   *Query
	content []contentStep // planner execution order
	pp      *planner.Plan // parallel to content
}

func (db *DB) plan(q *Query, constraints core.Constraints) (*queryPlan, error) {
	if q.Table != "images" {
		return nil, fmt.Errorf("vdb: unknown table %q (only 'images')", q.Table)
	}
	for _, c := range q.Columns {
		if _, err := metaValue(Metadata{}, c); err != nil {
			return nil, err
		}
	}
	for _, mc := range q.Meta {
		if _, err := metaValue(Metadata{}, mc.Column); err != nil {
			return nil, err
		}
	}
	plan := &queryPlan{query: q}
	var textual []contentStep
	var steps []planner.Step
	for i, cc := range q.Content {
		pred, ok := db.predicates[cc.Category]
		if !ok {
			return nil, fmt.Errorf("vdb: no classifier installed for category %q (installed: %s)",
				cc.Category, strings.Join(db.predicateNames(), ", "))
		}
		point, err := core.Select(pred.Frontier, constraints)
		if err != nil {
			return nil, fmt.Errorf("vdb: selecting cascade for %q: %w", cc.Category, err)
		}
		res := pred.Results[point.Index]
		textual = append(textual, contentStep{cond: cc, pred: pred, spec: res.Spec, expected: res})
		st, err := db.plannerStep(i, cc, pred, res)
		if err != nil {
			return nil, fmt.Errorf("vdb: costing cascade for %q: %w", cc.Category, err)
		}
		steps = append(steps, st)
	}
	plan.pp = planner.PlanContent(steps, db.availability(), planner.Options{
		Order:     db.planOpts.Order,
		Fusion:    db.planOpts.Fusion,
		Rows:      len(db.meta),
		CostModel: db.costModel.Name(),
	})
	plan.content = make([]contentStep, len(plan.pp.Steps))
	for k, ps := range plan.pp.Steps {
		plan.content[k] = textual[ps.Input]
	}
	return plan, nil
}

// plannerStep decomposes one chosen cascade into the planner's costed form:
// per-level representation and inference costs at the evaluator's exact
// level occupancies, the adaptive selectivity estimate, and the
// materialized-column coverage. Caller holds db.mu.
func (db *DB) plannerStep(input int, cc ContentCond, pred *Predicate, res cascade.Result) (planner.Step, error) {
	st := planner.Step{
		Input:      input,
		Key:        pred.Category,
		CascadeID:  res.Spec.ID(),
		Negated:    cc.Negated,
		BaseCost:   res.AvgCost,
		SourceCost: db.costModel.SourceCost(),
		TotalRows:  len(db.meta),
	}
	occ, err := pred.System.Evaluator.Occupancy(res.Spec)
	if err != nil {
		return st, err
	}
	evalN := float64(pred.System.Evaluator.N())
	for i, ref := range res.Spec.Levels() {
		m := pred.System.Models[ref.Model]
		// A level scores int8 exactly when the DB runs quantized and the
		// model carries an armed calibration — the same condition execution
		// tests — so the plan prices the representation that will run.
		quant := db.quant == exec.QuantAuto && m.Quantized()
		infer := db.costModel.InferCost(m)
		if quant {
			infer = db.costModel.QuantInferCost(m)
			if band := float64(m.Quant.GuardBand()); band > st.QuantBand {
				st.QuantBand = band
			}
		}
		st.Levels = append(st.Levels, planner.LevelCost{
			RepID:     m.Xform.ID(),
			RepCost:   db.costModel.RepCost(m.Xform),
			InferCost: infer,
			Occupancy: float64(occ[i].Reached) / evalN,
			Quantized: quant,
		})
	}
	st.Selectivity, st.SelSamples = db.catalog.Selectivity(pred.Category)
	if db.matMode != MatOff {
		st.CachedRows = db.mat.Coverage(matKey(pred, res.Spec))
		if st.CachedRows > st.TotalRows {
			// A persisted column can outlive a shrunken view of its corpus;
			// the planner only prices the rows this query can see.
			st.CachedRows = st.TotalRows
		}
	}
	return st, nil
}

// availability snapshots plan-time physical-representation residency: the
// store-backed RepSource's transform coverage, a sampled residency estimate
// over the cross-query rep cache, and a sampled record-residency estimate
// for sources. Caller holds db.mu; the caches have their own locks and never
// take db.mu, so probing under the plan lock is safe.
func (db *DB) availability() planner.Availability {
	av := planner.Availability{}
	if db.serveReps && db.reps != nil {
		av.Served = db.reps.HasRep
	}
	n := len(db.meta)
	if n == 0 {
		return av
	}
	if rc, ok := db.repCache.(exec.RepContainser); ok {
		av.CachedFrac = func(id string) float64 {
			return planner.SampleFrac(n, func(i int) bool { return rc.ContainsRep(i, id) })
		}
	}
	if db.reps != nil && db.reps.sc.cache != nil {
		av.SourceCachedFrac = planner.SampleFrac(n, db.reps.sc.cache.HasSource)
	}
	return av
}

// describe renders the plan. Caller holds db.mu (read).
func (p *queryPlan) describe(db *DB) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan images (%d rows)\n", len(db.meta))
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
			cs.expected.Accuracy, cs.expected.Throughput, db.costModel.Name())
		fmt.Fprintf(&b, "       %s\n", ps.CostLine())
		if db.matMode != MatOff {
			if n := db.mat.Coverage(matKey(cs.pred, cs.spec)); n >= len(db.meta) && n > 0 {
				b.WriteString("       (materialized: no inference needed)\n")
			} else if n > 0 {
				fmt.Fprintf(&b, "       (partially materialized: %d/%d rows cached)\n", n, len(db.meta))
			}
		}
	}
	if line := p.pp.OrderLine(); line != "" {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	if line := p.pp.Fusion.Line(); line != "" {
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

// executeQuery runs a planned query against its snapshot. It touches no DB
// state: classification reads the snapshot's fixed corpus view and fills the
// snapshot's private columns, which Query merges back under the lock.
func executeQuery(ctx context.Context, plan *queryPlan, snap *querySnapshot) (*Result, error) {
	q := plan.query
	// 1. Metadata filters over all rows.
	var live []int
	for i, m := range snap.meta {
		keep := true
		for _, mc := range q.Meta {
			v, err := metaValue(m, mc.Column)
			if err != nil {
				return nil, err
			}
			ok, err := compare(v, mc.Op, mc.Val)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			live = append(live, i)
		}
	}

	// 2. Content predicates on survivors, evaluated as batched columns
	// through the execution engine. The materialized column carries
	// per-row validity (the paper's partially-materialized UDF output):
	// rows classified under a metadata filter are cached too, so a later
	// broader query only pays for the rows it has not yet seen.
	res := &Result{}
	// The snapshot's private columns; steps sharing a live column (the same
	// predicate referenced twice, e.g. X AND NOT X) share the private copy
	// too, so they are one classification, not two. shares re-checks slot
	// sharing over the cascades actually pending on the live rows: the
	// planner judged sharing corpus-wide, but a metadata filter can leave a
	// pending set (say the two disjoint cascades of three) that shares
	// nothing — fusing those would give up narrowing for no rep savings.
	ccols := snap.cols
	pending, shares := 0, false
	slotUsers := make(map[string]int)
	seenCols := make(map[*column]bool, len(plan.content))
	for si, cs := range plan.content {
		col := ccols[si]
		if seenCols[col] {
			continue
		}
		seenCols[col] = true
		missing := col.Missing(live)
		// Labels already resident for this query's survivors are lookups
		// that would have been UDF calls — the materialization hit count.
		res.MatHits += len(live) - len(missing)
		if len(missing) > 0 {
			pending++
			seenSlots := make(map[string]bool)
			for _, ref := range cs.spec.Levels() {
				id := cs.pred.System.Models[ref.Model].Xform.ID()
				if seenSlots[id] {
					continue
				}
				seenSlots[id] = true
				slotUsers[id]++
				if slotUsers[id] >= 2 {
					shares = true
				}
			}
		}
	}

	// 2a. Bitmap short-circuit: the predicate chain fully covered over its
	// own survivor sets — the repeat-query case materialization exists for.
	// The whole content phase collapses to word-parallel AND/ANDNOT over
	// the label bitmaps; no engine, no runtime, no inference. pending counts
	// gaps over the full live set, so it can be positive while the chain
	// still qualifies (a later predicate only ever materialized over an
	// earlier one's survivors) — tryBitmap makes the progressive check.
	if len(plan.content) > 0 {
		if r, ok, err := tryBitmap(plan, snap, res, ccols, live, q); ok || err != nil {
			return r, err
		}
	}

	// 2b. Classify what is missing, then narrow. The planner priced one
	// fused run of every pending cascade over the union of their missing
	// rows (each distinct transform materialized once per frame for the
	// whole query) against sequential narrowing; its choice sets the stride
	// of this loop — all steps classified at once, or one step at a time,
	// each over the rows the steps before it left. The plan-time decision is
	// re-guarded against this snapshot's live rows: with fewer than two
	// predicates still pending here, or no slot shared among those actually
	// pending — a metadata filter can shrink coverage gaps the planner
	// judged corpus-wide — fusing has nothing to amortize, so execution
	// stays sequential.
	res.Fused = pending >= 2 && shares && plan.pp.Fusion.Fuse
	for lo := 0; lo < len(plan.content); {
		hi := lo + 1
		if res.Fused {
			hi = len(plan.content)
		}
		if err := classifyMissing(ctx, plan, snap, res, lo, hi, live); err != nil {
			return nil, err
		}
		for ; lo < hi; lo++ {
			var next []int
			for _, idx := range live {
				if ccols[lo].Label(idx) != plan.content[lo].cond.Negated {
					next = append(next, idx)
				}
			}
			live = next
		}
	}
	return project(snap, res, live, q)
}

// classifyMissing fills the columns of content steps [lo,hi) for every live
// row they do not cover yet, in one engine run over the union of those rows:
// the steps' cascades share one representation-slot plan, and per-cascade
// need masks keep steps with different cached coverage from re-classifying
// rows they already know. Steps with nothing to classify — fully covered, or
// a later mention of a column an earlier step fills — stay out of the run.
func classifyMissing(ctx context.Context, plan *queryPlan, snap *querySnapshot, res *Result, lo, hi int, live []int) error {
	var steps []int
	var rts []*cascade.Runtime
	taken := make(map[*column]bool, hi-lo)
	for si := lo; si < hi; si++ {
		col, cs := snap.cols[si], plan.content[si]
		if taken[col] || len(col.Missing(live)) == 0 {
			continue
		}
		taken[col] = true
		rt, err := cascade.NewRuntime(cs.spec, cs.pred.System.Models, cs.pred.System.Thresholds)
		if err != nil {
			return err
		}
		steps, rts = append(steps, si), append(rts, rt)
	}
	if len(steps) == 0 {
		return nil
	}
	var union []int
	for _, idx := range live {
		for _, si := range steps {
			if !snap.cols[si].Valid(idx) {
				union = append(union, idx)
				break
			}
		}
	}
	need := make([][]bool, len(steps))
	for k, si := range steps {
		need[k] = make([]bool, len(union))
		for j, idx := range union {
			need[k][j] = !snap.cols[si].Valid(idx)
		}
	}
	eng, err := cascade.NewEngine(rts...)
	if err != nil {
		return err
	}
	rep, err := eng.RunMasked(ctx, snap.corpus, union, need, snap.opts)
	if err != nil {
		names := make([]string, len(steps))
		for k, si := range steps {
			names[k] = plan.content[si].cond.Category
		}
		return fmt.Errorf("vdb: classifying %q: %w", strings.Join(names, ", "), err)
	}
	for k, si := range steps {
		cs := plan.content[si]
		frames := 0
		for j, idx := range union {
			if need[k][j] {
				snap.cols[si].SetLabel(idx, rep.Labels[k][j])
				frames++
			}
		}
		res.UDFCalls += frames
		res.Observed = append(res.Observed, ObservedSelectivity{
			Category:  cs.pred.Category,
			Cascade:   cs.spec.ID(),
			Frames:    frames,
			Positives: rep.Positives[k],
		})
	}
	res.RepsMaterialized += rep.RepsMaterialized
	res.RepHits += rep.RepHits
	res.RepFallbacks += rep.RepFallbacks
	res.QuantScored += rep.QuantScored
	res.QuantFallbacks += rep.QuantFallbacks
	if rep.HasCache {
		res.HasRepCache = true
		res.RepCache.Hits += rep.Cache.Hits
		res.RepCache.Misses += rep.Cache.Misses
		res.RepCache.EvictedBytes += rep.Cache.EvictedBytes
		res.RepCache.ResidentBytes = rep.Cache.ResidentBytes
	}
	return nil
}

// tryBitmap attempts the content phase as pure bitmap algebra. Each step
// needs labels only for the rows that survived the steps before it, so the
// check is progressive: narrow a live bitset chain-style, requiring each
// column to cover the current survivor set — not the whole corpus. A chain
// executed sequentially once (later predicates materialized only over
// earlier predicates' survivors) qualifies on repeat. Each qualifying step
// is one word-parallel AND (ANDNOT when negated) of the live set against
// the label bitmap — no cascade runtime, no engine, no pixel ever touched.
// Returns ok=false (and leaves res untouched beyond its inputs) when some
// step's column has a gap over its survivor set.
func tryBitmap(plan *queryPlan, snap *querySnapshot, res *Result, ccols []*column, live []int, q *Query) (*Result, bool, error) {
	n := len(snap.meta)
	lv := bitset.New(n)
	for _, idx := range live {
		lv.Set(idx)
	}
	for si, cs := range plan.content {
		if !ccols[si].Covers(lv) {
			return nil, false, nil
		}
		// Narrowing twice by the same column is idempotent for AND and
		// correctly empties X AND NOT X, so no dedup is needed.
		ccols[si].Narrow(lv, cs.cond.Negated)
	}
	live = lv.AppendMembers(live[:0])
	res.Bitmap = true
	r, err := project(snap, res, live, q)
	return r, true, err
}

// project applies limit + projection over the surviving rows.
func project(snap *querySnapshot, res *Result, live []int, q *Query) (*Result, error) {
	if q.Limit > 0 && len(live) > q.Limit {
		live = live[:q.Limit]
	}
	res.Count = len(live)
	cols := q.Columns
	if q.Star {
		cols = metaColumns
	}
	if q.CountStar {
		res.Columns = []string{"count"}
		res.Rows = [][]Value{{{Int: int64(len(live))}}}
		return res, nil
	}
	res.Columns = cols
	for _, idx := range live {
		row := make([]Value, len(cols))
		for c, col := range cols {
			v, err := metaValue(snap.meta[idx], col)
			if err != nil {
				return nil, err
			}
			row[c] = v
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

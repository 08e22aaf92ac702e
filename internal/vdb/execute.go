package vdb

import (
	"context"
	"fmt"
	"strings"

	"tahoma/internal/bitset"
	"tahoma/internal/cascade"
	"tahoma/internal/matstore"
)

// stepColumn is one materialized column as a running statement sees it: the
// version its read state pinned, plus the overlay of labels this statement
// classified itself — allocated on first use, holding only rows the pinned
// version has no label for. With materialization off base is the empty
// column: every label is transient, deduplicated per column within the
// statement, and never published.
type stepColumn struct {
	base *column
	over *column
}

// uncovered returns the members of live the column has no label for, nil
// when it labels them all. The covered case — what a repeat query hits —
// allocates nothing.
func (c *stepColumn) uncovered(live *bitset.Set) *bitset.Set {
	if c.over == nil && c.base.Covers(live) {
		return nil
	}
	need := live.Clone()
	c.base.ClearValid(need)
	if c.over != nil {
		c.over.ClearValid(need)
	}
	if !need.Any() {
		return nil
	}
	return need
}

// narrow keeps the members of live whose label differs from negated. Every
// member must have a label. An overlay never labels a row its base does, so
// the column's label set is the union of the two bitmaps.
func (c *stepColumn) narrow(live *bitset.Set, negated bool) {
	switch {
	case c.over == nil:
		c.base.Narrow(live, negated)
	case negated:
		c.base.Narrow(live, true)
		c.over.Narrow(live, true)
	default:
		fresh := live.Clone()
		c.over.Narrow(fresh, false)
		c.base.Narrow(live, false)
		live.Or(fresh)
	}
}

// execute runs the plan against the read state it was planned on and returns
// the result plus the overlays to publish (none with materialization off).
// It touches no DB state.
//
// The live set is a bitset from the metadata filter to the projection: a
// step whose column labels every live row narrows it with one word-parallel
// AND (ANDNOT when negated) — no cascade runtime, no engine, no pixel ever
// touched — and row indexes are extracted only for the engine's frame list of
// a step that must classify, and for the rows a statement returns.
func (p *queryPlan) execute(ctx context.Context) (*Result, []overlay, error) {
	st := p.st
	res := &Result{}
	live := filterRows(st.meta, st.zones, p.filters)
	if len(p.content) == 0 {
		p.projectRows(res, live)
		return res, nil, nil
	}

	pinned := st.cols
	if st.matMode == MatOff {
		pinned = nil
	}
	cols := make([]stepColumn, len(p.keys))
	for i, k := range p.keys {
		cols[i].base = pinned.Get(k)
	}

	// Labels already resident for the metadata survivors are lookups that
	// would have been UDF calls — the materialization hit count. The same
	// pass re-checks fusion against this statement's rows: the planner judged
	// slot sharing corpus-wide, but a metadata filter can leave a pending set
	// (say the two disjoint cascades of three) that shares nothing — fusing
	// those would give up narrowing for no rep savings.
	survivors := live.Count()
	pending, shares := 0, false
	slotUsers := make(map[string]int)
	counted := make([]bool, len(cols))
	for _, cs := range p.content {
		if counted[cs.col] {
			continue
		}
		counted[cs.col] = true
		hits := cols[cs.col].base.Hits(live)
		res.MatHits += hits
		if hits == survivors {
			continue
		}
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
	// The planner priced one fused run of every pending cascade over the
	// union of their missing rows (each distinct transform materialized once
	// per frame for the whole query) against sequential narrowing. With fewer
	// than two columns pending here, or no slot shared among them, fusing has
	// nothing to amortize and execution stays sequential.
	fuse := pending >= 2 && shares && p.pp.Fusion.Fuse
	survivorSet := live
	if fuse {
		survivorSet = live.Clone()
	}

	// Narrow through the covered prefix of the chain. Coverage is
	// progressive — a step needs labels only for the rows that survived the
	// steps before it — so a chain executed sequentially once (later
	// predicates materialized only over earlier predicates' survivors) is
	// covered on repeat even though pending counted gaps over the full
	// survivor set. Narrowing twice by one column is idempotent for AND and
	// correctly empties X AND NOT X.
	lo := 0
	for ; lo < len(p.content); lo++ {
		cs := &p.content[lo]
		if cols[cs.col].uncovered(live) != nil {
			break
		}
		cols[cs.col].narrow(live, cs.cond.Negated)
	}
	if lo == len(p.content) {
		// The repeat-query case materialization exists for: the whole
		// content phase was bitmap algebra.
		res.Bitmap = true
		p.projectRows(res, live)
		return res, nil, nil
	}

	// Classify what is missing, then narrow. The fusion choice sets the
	// stride: all steps classified at once over the metadata survivors, or
	// one step at a time, each over the rows the steps before it left (the
	// covered prefix above is exactly what those first strides would do).
	res.Fused = fuse
	if fuse {
		live, lo = survivorSet, 0
	}
	for lo < len(p.content) {
		hi := lo + 1
		if fuse {
			hi = len(p.content)
		}
		if err := p.classifyMissing(ctx, res, cols, lo, hi, live); err != nil {
			return nil, nil, err
		}
		for ; lo < hi; lo++ {
			cols[p.content[lo].col].narrow(live, p.content[lo].cond.Negated)
		}
	}
	p.projectRows(res, live)

	var fresh []overlay
	if st.matMode != MatOff {
		for i, c := range cols {
			if c.over != nil {
				fresh = append(fresh, overlay{key: p.keys[i], col: c.over})
			}
		}
	}
	return res, fresh, nil
}

// classifyMissing fills the columns of content steps [lo,hi) for every live
// row they do not label yet, in one engine run over the union of those rows:
// the steps' cascades share one representation-slot plan, and per-cascade
// need masks keep steps with different cached coverage from re-classifying
// rows they already know. Steps with nothing to classify — fully covered, or
// a later mention of a column an earlier step fills — stay out of the run. A
// run of one step uses its cascade's installed engine, warm from earlier
// statements; only a fused run plans an engine of its own.
func (p *queryPlan) classifyMissing(ctx context.Context, res *Result, cols []stepColumn, lo, hi int, live *bitset.Set) error {
	st := p.st
	var steps []int
	var needs []*bitset.Set
	var rts []*cascade.Runtime
	taken := make([]bool, len(cols))
	for si := lo; si < hi; si++ {
		cs := &p.content[si]
		if taken[cs.col] {
			continue
		}
		need := cols[cs.col].uncovered(live)
		if need == nil {
			continue
		}
		taken[cs.col] = true
		steps, needs, rts = append(steps, si), append(needs, need), append(rts, cs.rt)
	}
	if len(steps) == 0 {
		return nil
	}
	union := needs[0]
	if len(needs) > 1 {
		union = needs[0].Clone()
		for _, need := range needs[1:] {
			union.Or(need)
		}
	}
	// The one place a row list exists before projection: the engine's frame
	// list, sized to what must be classified, not to the table.
	rows := union.AppendMembers(make([]int, 0, union.Count()))
	mask := make([][]bool, len(steps))
	for k, need := range needs {
		mask[k] = make([]bool, len(rows))
		for j, idx := range rows {
			mask[k][j] = need.Get(idx)
		}
	}
	eng, err := rts[0].Engine()
	if len(rts) > 1 {
		eng, err = cascade.NewEngine(rts...)
	}
	if err != nil {
		return err
	}
	rep, err := eng.RunMasked(ctx, st.corpus, rows, mask, st.contentExecOpts())
	if err != nil {
		names := make([]string, len(steps))
		for k, si := range steps {
			names[k] = p.content[si].cond.Category
		}
		return fmt.Errorf("vdb: classifying %q: %w", strings.Join(names, ", "), err)
	}
	for k, si := range steps {
		cs := &p.content[si]
		c := &cols[cs.col]
		if c.over == nil {
			c.over = matstore.NewColumn()
			c.over.Grow(st.n)
		}
		frames := 0
		for j, idx := range rows {
			if mask[k][j] {
				c.over.SetLabel(idx, rep.Labels[k][j])
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
	return nil
}

// projectRows applies limit + projection over the surviving rows. COUNT(*)
// is a population count; a row query extracts the survivors' indexes once and
// backs all the rows it returns with one slab of values.
func (p *queryPlan) projectRows(res *Result, live *bitset.Set) {
	q := p.query
	survivors := live.Count()
	res.Count = survivors
	if q.Limit > 0 && res.Count > q.Limit {
		res.Count = q.Limit
	}
	if q.CountStar {
		res.Columns = []string{"count"}
		res.Rows = [][]Value{{{Int: int64(res.Count)}}}
		return
	}
	res.Columns = q.Columns
	if q.Star {
		res.Columns = metaColumns
	}
	if res.Count == 0 {
		return
	}
	width := len(p.project)
	slab := make([]Value, res.Count*width)
	res.Rows = make([][]Value, res.Count)
	for r, idx := range live.AppendMembers(make([]int, 0, survivors))[:res.Count] {
		row := slab[r*width : (r+1)*width : (r+1)*width]
		for c, col := range p.project {
			row[c] = metaValue(&p.st.meta[idx], col)
		}
		res.Rows[r] = row
	}
}

package vdb

import (
	"context"
	"fmt"
	"math/bits"

	"tahoma/internal/bitset"
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
// a step that must classify, and for the rows a statement returns. The set is
// borrowed from the state's pool and goes back when execute returns: nothing
// keeps it past that, since uncovered and narrow clone what they hold on to
// and projectRows copies its members out.
func (p *queryPlan) execute(ctx context.Context) (*Result, []overlay, error) {
	st := p.st
	res := &Result{}
	live := st.liveSet()
	defer putLive(st, live)
	filterRows(live, &st.meta, st.zones, st.tail, p.filters)
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
	// would have been UDF calls — the materialization hit count, once per
	// distinct column.
	counted := make([]bool, len(cols))
	for _, cs := range p.content {
		if !counted[cs.col] {
			counted[cs.col] = true
			res.MatHits += cols[cs.col].base.Hits(live)
		}
	}

	// Narrow step by step. Before it narrows, a step classifies the live rows
	// — those the steps before it let through — that its column does not
	// label yet. Coverage is therefore progressive: a chain executed once (later predicates
	// materialized only over earlier predicates' survivors) is covered on
	// repeat, and the whole content phase is bitmap algebra — the repeat-query
	// case materialization exists for. Narrowing twice by one column is
	// idempotent for AND and correctly empties X AND NOT X.
	for si := range p.content {
		if err := p.classifyMissing(ctx, res, cols, si, live); err != nil {
			return nil, nil, err
		}
		cs := &p.content[si]
		cols[cs.col].narrow(live, cs.cond.Negated)
	}
	res.Bitmap = res.UDFCalls == 0
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

// classifyMissing fills content step si's column for every live row it does
// not label yet, in one run of the step's installed engine — warm from
// earlier statements — over just those rows. A step with nothing to classify
// (fully covered, or a later mention of a column an earlier step filled)
// runs nothing.
func (p *queryPlan) classifyMissing(ctx context.Context, res *Result, cols []stepColumn, si int, live *bitset.Set) error {
	st := p.st
	cs := &p.content[si]
	c := &cols[cs.col]
	need := c.uncovered(live)
	if need == nil {
		return nil
	}
	eng, err := cs.rt.Engine()
	if err != nil {
		return err
	}
	// The one place a row list exists before projection: the engine's frame
	// list, sized to what must be classified, not to the table.
	rows := need.AppendMembers(make([]int, 0, need.Count()))
	src, opts := st.runCorpus(len(rows), st.contentExecOpts())
	rep, err := eng.RunContext(ctx, src, rows, opts)
	if err != nil {
		return fmt.Errorf("vdb: classifying %q: %w", cs.cond.Category, err)
	}
	if c.over == nil {
		c.over = matstore.NewColumn()
		c.over.Grow(st.n)
	}
	for j, idx := range rows {
		c.over.SetLabel(idx, rep.Labels[j])
	}
	res.UDFCalls += len(rows)
	res.Observed = append(res.Observed, ObservedSelectivity{
		Category:  cs.pred.Category,
		Cascade:   p.keys[cs.col].Cascade,
		Frames:    len(rows),
		Positives: rep.Positives,
	})
	res.RepsMaterialized += rep.RepsMaterialized
	res.RepHits += rep.RepHits
	res.RepFallbacks += rep.RepFallbacks
	return nil
}

// projectRows applies limit + projection over the surviving rows. COUNT(*)
// is a population count; a row query walks the survivor words in order,
// stops at its limit, and backs all the rows it returns with one slab of
// values.
func (p *queryPlan) projectRows(res *Result, live *bitset.Set) {
	q := p.query
	res.Count = live.Count()
	if q.Limit > 0 && res.Count > q.Limit {
		res.Count = q.Limit
	}
	if q.CountStar {
		res.Columns = countColumns
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
	r := 0
	for w, word := range live.Words() {
		for ; word != 0 && r < res.Count; word &= word - 1 {
			idx := w*64 + bits.TrailingZeros64(word)
			row := slab[r*width : (r+1)*width : (r+1)*width]
			for c, col := range p.project {
				row[c] = metaValue(&p.st.meta, idx, col)
			}
			res.Rows[r] = row
			r++
		}
		if r == res.Count {
			return
		}
	}
}

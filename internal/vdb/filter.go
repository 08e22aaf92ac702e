package vdb

import (
	"cmp"
	"fmt"
	"strings"

	"tahoma/internal/bitset"
)

// Metadata columns by index, in SELECT * order.
const (
	colID = iota
	colLocation
	colCamera
	colTS
)

var metaColumns = []string{"id", "location", "camera", "ts"}

// countColumns is a COUNT(*) result's one column.
var countColumns = []string{"count"}

func metaColumn(name string) (int, error) {
	for i, c := range metaColumns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("vdb: unknown column %q (have %s)", name, strings.Join(metaColumns, ", "))
}

// metaValue reads column col of a row — projection only; filters compare
// the typed fields directly.
func metaValue(m *Metadata, col int) Value {
	switch col {
	case colID:
		return Value{Int: m.ID}
	case colLocation:
		return Value{IsString: true, Str: m.Location}
	case colCamera:
		return Value{IsString: true, Str: m.Camera}
	default:
		return Value{Int: m.TS}
	}
}

// The three ways a row value can order against a literal; a comparison
// operator is the set of orderings it accepts.
const (
	ordLess uint8 = 1 << iota
	ordEqual
	ordGreater
)

var acceptOrders = map[CompareOp]uint8{
	OpEq: ordEqual,
	OpNe: ordLess | ordGreater,
	OpLt: ordLess,
	OpLe: ordLess | ordEqual,
	OpGt: ordGreater,
	OpGe: ordGreater | ordEqual,
}

// metaFilter is one metadata comparison compiled at plan time: the column
// resolved to an index, the literal unboxed to the column's type, and the
// operator reduced to the orderings it accepts. Nothing about a statement is
// left to discover (or to fail) per row.
type metaFilter struct {
	col    int
	accept uint8
	num    int64  // literal of an id/ts filter
	str    string // literal of a location/camera filter
}

func compileFilter(mc MetaCond) (metaFilter, error) {
	col, err := metaColumn(mc.Column)
	if err != nil {
		return metaFilter{}, err
	}
	accept, ok := acceptOrders[mc.Op]
	if !ok {
		return metaFilter{}, fmt.Errorf("vdb: unknown operator %q", mc.Op)
	}
	textual := col == colLocation || col == colCamera
	if textual != mc.Val.IsString {
		want := "an integer"
		if textual {
			want = "a string"
		}
		return metaFilter{}, fmt.Errorf("vdb: type mismatch comparing %s %s %s: %s is %s column",
			mc.Column, mc.Op, mc.Val, mc.Column, want)
	}
	return metaFilter{col: col, accept: accept, num: mc.Val.Int, str: mc.Val.Str}, nil
}

// match evaluates the filter on one row.
func (f *metaFilter) match(m *Metadata) bool {
	var c int
	switch f.col {
	case colID:
		c = cmp.Compare(m.ID, f.num)
	case colTS:
		c = cmp.Compare(m.TS, f.num)
	case colLocation:
		c = strings.Compare(m.Location, f.str)
	default:
		c = strings.Compare(m.Camera, f.str)
	}
	return f.accept&(1<<uint(c+1)) != 0 // -1, 0, +1 → ordLess, ordEqual, ordGreater
}

// zoneRows is the block size of the metadata block index: 16 bitset words.
const zoneRows = 1024

// zone summarizes one block of metadata rows over the integer columns: each
// one's min/max, and whether its values are non-decreasing in row order (an
// append-ordered id or ts). Zones are derived state — rebuilt from the
// metadata on load and recovery, extended on append, never persisted. The
// block index holds complete blocks only, so an entry is immutable from the
// moment it is written and readers of any published row count share the
// slice with the appender; the trailing partial block's zone is summarized
// afresh for each published state (readState.tail).
type zone struct {
	idMin, idMax         int64
	tsMin, tsMax         int64
	idOrdered, tsOrdered bool
}

// summarize is the zone of a non-empty run of rows.
func summarize(rows []Metadata) zone {
	z := zone{idMin: rows[0].ID, idMax: rows[0].ID, tsMin: rows[0].TS, tsMax: rows[0].TS, idOrdered: true, tsOrdered: true}
	for i := 1; i < len(rows); i++ {
		prev, m := &rows[i-1], &rows[i]
		z.idMin, z.idMax = min(z.idMin, m.ID), max(z.idMax, m.ID)
		z.tsMin, z.tsMax = min(z.tsMin, m.TS), max(z.tsMax, m.TS)
		z.idOrdered = z.idOrdered && prev.ID <= m.ID
		z.tsOrdered = z.tsOrdered && prev.TS <= m.TS
	}
	return z
}

// extendZones summarizes every complete block of meta that zones does not
// cover yet.
func extendZones(zones []zone, meta []Metadata) []zone {
	for b := len(zones); (b+1)*zoneRows <= len(meta); b++ {
		zones = append(zones, summarize(meta[b*zoneRows:(b+1)*zoneRows]))
	}
	return zones
}

// tailZone summarizes meta's trailing partial block, at most zoneRows−1
// rows; it is the zero zone when there is none.
func tailZone(meta []Metadata) zone {
	if tail := meta[len(meta)/zoneRows*zoneRows:]; len(tail) > 0 {
		return summarize(tail)
	}
	return zone{}
}

// Verdicts of a filter over a whole block.
const (
	blockNone = iota // no row can match: skip the block
	blockSome        // undecided: search or scan the block
	blockAll         // every row matches
)

// over decides f against a block's value range [lo,hi]: the orderings the
// block's rows can take against the literal are a subset of {<,=,>}; the
// block is in when the operator accepts all of them, out when none.
func (f *metaFilter) over(lo, hi int64) int {
	var possible uint8
	if lo < f.num {
		possible |= ordLess
	}
	if hi > f.num {
		possible |= ordGreater
	}
	if lo <= f.num && f.num <= hi {
		possible |= ordEqual
	}
	switch {
	case possible&f.accept == 0:
		return blockNone
	case possible&^f.accept == 0:
		return blockAll
	}
	return blockSome
}

// over decides f against the block z summarizes; a location or camera filter
// is undecided.
func (z *zone) over(f *metaFilter) int {
	switch f.col {
	case colID:
		return f.over(z.idMin, z.idMax)
	case colTS:
		return f.over(z.tsMin, z.tsMax)
	}
	return blockSome
}

// searchable reports whether f's matches among z's rows are found by binary
// search: f compares an integer column the rows are in order by, so its
// matches are one run — unless the operator is !=, whose matches flank the
// literal's run.
func (z *zone) searchable(f *metaFilter) bool {
	ordered := f.col == colID && z.idOrdered || f.col == colTS && z.tsOrdered
	return ordered && f.accept != ordLess|ordGreater
}

// run narrows rows [a, e) of meta, non-decreasing in f's column, to the run
// of them f accepts. Those rows are the ones below the literal, then the ones
// equal to it, then the ones above; two binary searches find where the
// equal ones start and end, and f's operator takes adjacent parts.
func (f *metaFilter) run(meta []Metadata, a, e int) (int, int) {
	eq := a + f.search(meta[a:e], false)
	gt := eq + f.search(meta[eq:e], true)
	start, end := gt, eq
	switch {
	case f.accept&ordLess != 0:
		start = a
	case f.accept&ordEqual != 0:
		start = eq
	}
	switch {
	case f.accept&ordGreater != 0:
		end = e
	case f.accept&ordEqual != 0:
		end = gt
	}
	return start, end
}

// search returns the index of the first of rows, non-decreasing in f's
// column, whose value is at least f's literal (above it, when strict), or
// len(rows) if there is none.
func (f *metaFilter) search(rows []Metadata, strict bool) int {
	i, j := 0, len(rows)
	for i < j {
		h := int(uint(i+j) >> 1)
		v := rows[h].TS
		if f.col == colID {
			v = rows[h].ID
		}
		if v > f.num || !strict && v == f.num {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// filterRows evaluates the conjunction of filters over meta into live, a
// set of len(meta) bits whatever it held before, a block at a time, and
// reports how many rows it compared one by one. zones summarizes meta's
// complete blocks and tail its trailing partial one, so every block is
// decided by its zone first. A block wholly outside any filter is skipped.
// Each id/ts filter the block's rows are in order by narrows it by binary
// search to the one run of rows it accepts, and a filter the block is wholly
// inside leaves it whole. What is left is set a word at a time when every
// filter was decided or searched, and compared row by row otherwise: under a
// string filter, a != whose literal lies in the block's range, or an id/ts
// filter over rows out of order. Correct for any row order; a ts or id
// window over append-ordered rows compares no row at all.
func filterRows(live *bitset.Set, meta []Metadata, zones []zone, tail zone, filters []metaFilter) int {
	if len(filters) == 0 {
		live.SetAll()
		return 0
	}
	live.Reset()
	words, compared := live.Words(), 0
	for lo := 0; lo < len(meta); lo += zoneRows {
		z := &tail
		if b := lo / zoneRows; b < len(zones) {
			z = &zones[b]
		}
		a, e, scan := lo, min(lo+zoneRows, len(meta)), false
		for i := range filters {
			f := &filters[i]
			switch z.over(f) {
			case blockNone:
				e = a
			case blockSome:
				if z.searchable(f) {
					a, e = f.run(meta, a, e)
				} else {
					scan = true
				}
			}
			if a >= e {
				break
			}
		}
		switch {
		case a >= e:
		case !scan:
			live.SetRange(a, e)
		default:
			compared += e - a
			scanRows(words, meta, filters, a, e)
		}
	}
	return compared
}

// scanRows sets in words the rows of [a, e) that every filter accepts,
// comparing them a word of rows and a filter at a time: a filter turns up to
// 64 rows into a mask, and a word none of whose rows survives takes no more
// filters.
func scanRows(words []uint64, meta []Metadata, filters []metaFilter, a, e int) {
	for w := a >> 6; w <= (e-1)>>6; w++ {
		lo, hi := max(a, w<<6), min(e, (w+1)<<6)
		mask := ^uint64(0)
		for k := range filters {
			if mask &= filters[k].word(meta[lo:hi]) << (uint(lo) & 63); mask == 0 {
				break
			}
		}
		words[w] |= mask
	}
}

// word is the mask of the rows, at most 64, that f accepts: bit i for
// rows[i]. An integer comparison is computed without a branch per row.
func (f *metaFilter) word(rows []Metadata) uint64 {
	var m uint64
	switch f.col {
	case colID:
		for i := range rows {
			m |= f.accepts(rows[i].ID) << uint(i)
		}
	case colTS:
		for i := range rows {
			m |= f.accepts(rows[i].TS) << uint(i)
		}
	default:
		for i := range rows {
			if f.match(&rows[i]) {
				m |= 1 << uint(i)
			}
		}
	}
	return m
}

// accepts is 1 when f accepts the integer v and 0 when not: the ordering of
// v against the literal, 0, 1 or 2 for less, equal or greater, picks a bit
// of the accepted orderings.
func (f *metaFilter) accepts(v int64) uint64 {
	var ge, gt uint8
	if v >= f.num {
		ge = 1
	}
	if v > f.num {
		gt = 1
	}
	return uint64(f.accept >> (ge + gt) & 1)
}

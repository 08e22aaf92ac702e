package vdb

import (
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

// metaValue reads column col of row i — projection only; filters compare
// the columns directly.
func metaValue(t *metaTable, i, col int) Value {
	switch col {
	case colID:
		return Value{Int: t.id[i]}
	case colLocation:
		return Value{IsString: true, Str: t.location.value(i)}
	case colCamera:
		return Value{IsString: true, Str: t.camera.value(i)}
	default:
		return Value{Int: t.ts[i]}
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

// metaFilter is one metadata comparison compiled at plan time against the
// read state it runs on: the column resolved to an index, the literal unboxed
// to the column's type, and the operator reduced to the orderings it accepts.
// A location or camera filter goes further, to an accept table over the
// state's dictionary: one entry per code, 1 when the code's value stands in
// an accepted ordering to the literal under strings.Compare, so a row is
// decided by its code alone and a literal no row holds is simply an order
// among the values. Nothing about a statement is left to discover (or to
// fail) per row.
type metaFilter struct {
	col    int
	accept uint8
	num    int64  // literal of an id/ts filter
	str    string // literal of a location/camera filter
	// A location/camera filter's compiled form: table, indexed by code; mask,
	// its accepted codes below 64, as a zone's code set holds them; and
	// whole, its verdict on a block that may hold any code — none or all
	// when the table accepts no code or every code, some otherwise.
	table []uint8
	mask  uint64
	whole int
}

func compileFilter(mc MetaCond, meta *metaTable) (metaFilter, error) {
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
	f := metaFilter{col: col, accept: accept, num: mc.Val.Int, str: mc.Val.Str}
	if textual {
		f.compileCodes(meta.strings(col).dict)
	}
	return f, nil
}

// compileCodes builds a string filter's accept table over dict.
func (f *metaFilter) compileCodes(dict []string) {
	f.table = make([]uint8, len(dict))
	accepted := 0
	for c, v := range dict {
		if f.accept&(1<<uint(strings.Compare(v, f.str)+1)) != 0 { // -1, 0, +1 → ordLess, ordEqual, ordGreater
			f.table[c] = 1
			accepted++
			if c < 64 {
				f.mask |= 1 << uint(c)
			}
		}
	}
	switch accepted {
	case 0:
		f.whole = blockNone
	case len(dict):
		f.whole = blockAll
	default:
		f.whole = blockSome
	}
}

// strings returns the string column col of t.
func (t *metaTable) strings(col int) *strColumn {
	if col == colLocation {
		return &t.location
	}
	return &t.camera
}

// ints returns the integer column col of t.
func (t *metaTable) ints(col int) []int64 {
	if col == colID {
		return t.id
	}
	return t.ts
}

// zoneRows is the block size of the metadata block index: 16 bitset words.
const zoneRows = 1024

// codeSet is the set of a string column's codes a block holds: bit c for code
// c. A block holding a code past 63 records unknownCodes, the empty set — no
// block is empty, so the empty set describes none — and decides no filter
// by it.
type codeSet uint64

const unknownCodes codeSet = 0

// codesOf is the code set of a non-empty run of codes.
func codesOf(codes []uint32) codeSet {
	var s codeSet
	for _, c := range codes {
		if c >= 64 {
			return unknownCodes
		}
		s |= 1 << c
	}
	return s
}

// zone summarizes one block of metadata rows: each integer column's min/max
// and whether its values are non-decreasing in row order (an append-ordered
// id or ts), and each string column's code set. Zones are derived state —
// rebuilt from the metadata on load and recovery, extended on append, never
// persisted. Codes never change meaning, so neither does a code set. The
// block index holds complete blocks only, so an entry is immutable from the
// moment it is written and readers of any published row count share the
// slice with the appender; the trailing partial block's zone is summarized
// afresh for each published state (readState.tail).
type zone struct {
	idMin, idMax         int64
	tsMin, tsMax         int64
	idOrdered, tsOrdered bool
	locations, cameras   codeSet
}

// summarize is the zone of rows [a, e) of t, a non-empty run.
func summarize(t *metaTable, a, e int) zone {
	ids, tss := t.id[a:e], t.ts[a:e]
	z := zone{idMin: ids[0], idMax: ids[0], tsMin: tss[0], tsMax: tss[0], idOrdered: true, tsOrdered: true}
	for i := 1; i < len(ids); i++ {
		z.idMin, z.idMax = min(z.idMin, ids[i]), max(z.idMax, ids[i])
		z.tsMin, z.tsMax = min(z.tsMin, tss[i]), max(z.tsMax, tss[i])
		z.idOrdered = z.idOrdered && ids[i-1] <= ids[i]
		z.tsOrdered = z.tsOrdered && tss[i-1] <= tss[i]
	}
	z.locations, z.cameras = codesOf(t.location.codes[a:e]), codesOf(t.camera.codes[a:e])
	return z
}

// extendZones summarizes every complete block of t that zones does not cover
// yet.
func extendZones(zones []zone, t *metaTable) []zone {
	for b := len(zones); (b+1)*zoneRows <= t.len(); b++ {
		zones = append(zones, summarize(t, b*zoneRows, (b+1)*zoneRows))
	}
	return zones
}

// tailZone summarizes t's trailing partial block, at most zoneRows−1 rows;
// it is the zero zone when there is none.
func tailZone(t *metaTable) zone {
	if a := t.len() / zoneRows * zoneRows; a < t.len() {
		return summarize(t, a, t.len())
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

// over decides f against the block z summarizes.
func (z *zone) over(f *metaFilter) int {
	switch f.col {
	case colID:
		return f.over(z.idMin, z.idMax)
	case colTS:
		return f.over(z.tsMin, z.tsMax)
	case colLocation:
		return f.overCodes(z.locations)
	default:
		return f.overCodes(z.cameras)
	}
}

// overCodes decides a string filter against a block holding the codes s: out
// when it accepts none of them, in when it accepts all. A block whose set is
// unknown may hold any code.
func (f *metaFilter) overCodes(s codeSet) int {
	if f.whole != blockSome || s == unknownCodes {
		return f.whole
	}
	switch {
	case uint64(s)&f.mask == 0:
		return blockNone
	case uint64(s)&^f.mask == 0:
		return blockAll
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

// run narrows rows [a, e) of vals, f's integer column and non-decreasing
// there, to the run of them f accepts. Those rows are the ones below the
// literal, then the ones equal to it, then the ones above; two binary
// searches find where the equal ones start and end, and f's operator takes
// adjacent parts.
func (f *metaFilter) run(vals []int64, a, e int) (int, int) {
	eq := a + f.search(vals[a:e], false)
	gt := eq + f.search(vals[eq:e], true)
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

// search returns the index of the first of vals, non-decreasing, that is at
// least f's literal (above it, when strict), or len(vals) if there is none.
func (f *metaFilter) search(vals []int64, strict bool) int {
	i, j := 0, len(vals)
	for i < j {
		h := int(uint(i+j) >> 1)
		if v := vals[h]; v > f.num || !strict && v == f.num {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// filterRows evaluates the conjunction of filters over meta into live, a
// set of meta.len() bits whatever it held before, a block at a time, and
// reports how many rows it compared one by one. zones summarizes meta's
// complete blocks and tail its trailing partial one, so every block is
// decided by its zone first. A block wholly outside any filter is skipped.
// Each id/ts filter the block's rows are in order by narrows it by binary
// search to the one run of rows it accepts, and a filter the block is wholly
// inside leaves it whole. What is left is set a word at a time when every
// filter was decided or searched, and compared row by row otherwise: under a
// string filter whose codes the block's code set straddles, a != whose
// literal lies in the block's range, or an id/ts filter over rows out of
// order. Correct for any row order; a ts or id window over append-ordered
// rows compares no row at all, and neither does a string equality over
// blocks that hold only its value or none of it.
func filterRows(live *bitset.Set, meta *metaTable, zones []zone, tail zone, filters []metaFilter) int {
	if len(filters) == 0 {
		live.SetAll()
		return 0
	}
	live.Reset()
	words, compared, n := live.Words(), 0, meta.len()
	for lo := 0; lo < n; lo += zoneRows {
		z := &tail
		if b := lo / zoneRows; b < len(zones) {
			z = &zones[b]
		}
		a, e, scan := lo, min(lo+zoneRows, n), false
		for i := range filters {
			f := &filters[i]
			switch z.over(f) {
			case blockNone:
				e = a
			case blockSome:
				if z.searchable(f) {
					a, e = f.run(meta.ints(f.col), a, e)
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
func scanRows(words []uint64, meta *metaTable, filters []metaFilter, a, e int) {
	for w := a >> 6; w <= (e-1)>>6; w++ {
		lo, hi := max(a, w<<6), min(e, (w+1)<<6)
		mask := ^uint64(0)
		for k := range filters {
			if mask &= filters[k].word(meta, lo, hi) << (uint(lo) & 63); mask == 0 {
				break
			}
		}
		words[w] |= mask
	}
}

// word is the mask of the rows [lo, hi) of meta, at most 64, that f
// accepts: bit i for row lo+i, computed without a branch per row. An integer
// is ordered against the literal; a code is looked up in the accept table.
func (f *metaFilter) word(meta *metaTable, lo, hi int) uint64 {
	var m uint64
	switch f.col {
	case colLocation, colCamera:
		for i, c := range meta.strings(f.col).codes[lo:hi] {
			m |= uint64(f.table[c]) << uint(i)
		}
	default:
		for i, v := range meta.ints(f.col)[lo:hi] {
			m |= f.accepts(v) << uint(i)
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

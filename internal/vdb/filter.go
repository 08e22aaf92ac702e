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

// zone is one complete block's min/max over the integer columns. Zones are
// derived state — rebuilt from the metadata on load and recovery, extended
// on append, never persisted — and exist only for complete blocks, so an
// entry is immutable from the moment it is written: readers of any published
// row count share the slice with the appender.
type zone struct {
	idMin, idMax int64
	tsMin, tsMax int64
}

// extendZones summarizes every complete block of meta that zones does not
// cover yet. The trailing partial block has no entry; the filter scans it.
func extendZones(zones []zone, meta []Metadata) []zone {
	for b := len(zones); (b+1)*zoneRows <= len(meta); b++ {
		rows := meta[b*zoneRows : (b+1)*zoneRows]
		z := zone{idMin: rows[0].ID, idMax: rows[0].ID, tsMin: rows[0].TS, tsMax: rows[0].TS}
		for i := range rows[1:] {
			m := &rows[1+i]
			z.idMin, z.idMax = min(z.idMin, m.ID), max(z.idMax, m.ID)
			z.tsMin, z.tsMax = min(z.tsMin, m.TS), max(z.tsMax, m.TS)
		}
		zones = append(zones, z)
	}
	return zones
}

// Verdicts of a filter over a whole block.
const (
	blockNone = iota // no row can match: skip the block
	blockSome        // undecided: scan the block
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

// filterRows evaluates the conjunction of filters over meta into a live
// bitset, a block at a time: a block whose min/max put it wholly inside
// every filter fills 16 words, one wholly outside any filter is skipped, and
// only a straddling block (or the trailing partial one, or any block under a
// string filter) is scanned row by row. Correct for any row order; for
// append-ordered ts windows it scans at most the two edge blocks.
func filterRows(meta []Metadata, zones []zone, filters []metaFilter) *bitset.Set {
	live := bitset.New(len(meta))
	if len(filters) == 0 {
		live.SetAll()
		return live
	}
	words := live.Words()
	for lo := 0; lo < len(meta); lo += zoneRows {
		hi := min(lo+zoneRows, len(meta))
		verdict := blockSome
		if b := lo / zoneRows; b < len(zones) {
			verdict = blockAll
			for i := range filters {
				f, v := &filters[i], blockSome
				switch f.col {
				case colID:
					v = f.over(zones[b].idMin, zones[b].idMax)
				case colTS:
					v = f.over(zones[b].tsMin, zones[b].tsMax)
				}
				if verdict = min(verdict, v); verdict == blockNone {
					break
				}
			}
		}
		switch verdict {
		case blockAll: // a complete block: whole words
			for w := lo >> 6; w < hi>>6; w++ {
				words[w] = ^uint64(0)
			}
		case blockSome:
		rows:
			for i := lo; i < hi; i++ {
				for k := range filters {
					if !filters[k].match(&meta[i]) {
						continue rows
					}
				}
				words[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return live
}

package vdb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tahoma/internal/bitset"
	"tahoma/internal/core"
	"tahoma/internal/img"
)

// match is the row-by-row oracle the filter tests hold filterRows to: f's
// comparison evaluated on one Metadata row, the literal as the statement
// gave it, with no column, code, table or zone in between.
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

// TestZoneVerdictSound checks, exhaustively over small ranges, that the block
// index never decides a block it should have scanned: "all" only when every
// value in the block's range passes, "none" only when no value can.
func TestZoneVerdictSound(t *testing.T) {
	for op := range acceptOrders {
		for lo := int64(-3); lo <= 3; lo++ {
			for hi := lo; hi <= 3; hi++ {
				for lit := int64(-4); lit <= 4; lit++ {
					f := mustFilter(t, nil, "ts", op, Value{Int: lit})
					pass, fail := 0, 0
					for v := lo; v <= hi; v++ {
						if f.match(&Metadata{TS: v}) {
							pass++
						} else {
							fail++
						}
					}
					switch v := f.over(lo, hi); {
					case v == blockAll && fail > 0, v == blockNone && pass > 0:
						t.Fatalf("ts %s %d over [%d,%d]: verdict %d with %d passing and %d failing values", op, lit, lo, hi, v, pass, fail)
					case v == blockSome && (pass == 0 || fail == 0) && lo == hi:
						t.Fatalf("ts %s %d over the single value %d: undecided", op, lit, lo)
					}
				}
			}
		}
	}
}

// Layouts of an integer column for the filter tests: how a column's values
// run down the rows.
const (
	layoutAscending  = iota // append-ordered, distinct
	layoutDescending        // reverse-ordered
	layoutShuffled          // a permutation
	layoutRuns              // non-decreasing in runs of equal values
	layoutConstant          // one value
	layoutBlocks            // each block one of the above, at its own offset
	layouts
)

// layoutColumn draws n values of an integer column laid out as layout, all
// within ±4n so that small literals land among them.
func layoutColumn(rng *rand.Rand, n, layout int) []int64 {
	vals := make([]int64, n)
	switch layout {
	case layoutAscending:
		for i := range vals {
			vals[i] = int64(2*i - n)
		}
	case layoutDescending:
		for i := range vals {
			vals[i] = int64(n - 2*i)
		}
	case layoutShuffled:
		for i, v := range rng.Perm(n) {
			vals[i] = int64(v - n/2)
		}
	case layoutRuns:
		run := 1 + rng.Intn(50)
		for i := range vals {
			vals[i] = int64(i/run*3 - n/2)
		}
	case layoutConstant:
		for i := range vals {
			vals[i] = 7
		}
	default:
		for lo := 0; lo < n; lo += zoneRows {
			block := layoutColumn(rng, min(zoneRows, n-lo), rng.Intn(layoutBlocks))
			off := int64(rng.Intn(2*n+1) - n)
			for i, v := range block {
				vals[lo+i] = v + off
			}
		}
	}
	return vals
}

// Layouts of a string column for the filter tests: which values it draws.
const (
	strFew    = iota // three values, the empty string among them
	strWide          // a hundred values: the dictionary passes 64 codes
	strBlocks        // each block one value of a hundred, three values, or a hundred
	strLayouts
)

// stringColumn draws n values of a string column laid out as layout, named
// after prefix.
func stringColumn(rng *rand.Rand, n, layout int, prefix string) []string {
	few := []string{prefix + "-up", prefix + "-down", ""}
	wide := func() string { return fmt.Sprintf("%s-%02d", prefix, rng.Intn(100)) }
	vals := make([]string, n)
	for lo := 0; lo < n; lo += zoneRows {
		block, one := layout, wide()
		if layout == strBlocks {
			block = rng.Intn(strBlocks + 1)
		}
		for i := lo; i < min(lo+zoneRows, n); i++ {
			switch block {
			case strFew:
				vals[i] = few[rng.Intn(len(few))]
			case strWide:
				vals[i] = wide()
			default:
				vals[i] = one
			}
		}
	}
	return vals
}

// filterTable is n metadata rows with id and ts laid out as given and each
// string column laid out as the rng draws it.
func filterTable(rng *rand.Rand, n, idLayout, tsLayout int) []Metadata {
	ids, tss := layoutColumn(rng, n, idLayout), layoutColumn(rng, n, tsLayout)
	locs, cams := stringColumn(rng, n, rng.Intn(strLayouts), "loc"), stringColumn(rng, n, rng.Intn(strLayouts), "cam")
	meta := make([]Metadata, n)
	for i := range meta {
		meta[i] = Metadata{ID: ids[i], TS: tss[i], Location: locs[i], Camera: cams[i]}
	}
	return meta
}

var filterOps = []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// mustFilter compiles one comparison against tab's dictionaries; tab may be
// nil for an id or ts comparison.
func mustFilter(t testing.TB, tab *metaTable, col string, op CompareOp, v Value) metaFilter {
	t.Helper()
	f, err := compileFilter(MetaCond{Column: col, Op: op, Val: v}, tab)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stringLiterals are literals for a string filter over meta's column col:
// the values of its first, middle and last rows, and values no row holds that
// sort before, between ("loc-5" falls between "loc-49" and "loc-50") and
// after them, and the empty string, which only a few-valued column holds.
func stringLiterals(meta []Metadata, col string) []string {
	lits := []string{"", "!", col[:3] + "-5", "~"}
	for _, i := range []int{0, len(meta) / 2, len(meta) - 1} {
		if i >= 0 && i < len(meta) {
			lits = append(lits, meta[i].Location)
			if col == "camera" {
				lits[len(lits)-1] = meta[i].Camera
			}
		}
	}
	return lits
}

// randomConds draws one to three comparisons over meta: an id or ts literal
// some row holds or one just off it, a block's first or last value, or an
// extreme of int64; a string literal some row holds or one none does.
func randomConds(rng *rand.Rand, meta []Metadata) []MetaCond {
	conds := make([]MetaCond, 1+rng.Intn(3))
	for k := range conds {
		col := metaColumns[rng.Intn(len(metaColumns))]
		op := filterOps[rng.Intn(len(filterOps))]
		if col == "location" || col == "camera" {
			lits := stringLiterals(meta, col)
			if len(meta) > 0 && rng.Intn(2) == 0 {
				m := meta[rng.Intn(len(meta))]
				lits = []string{m.Location, m.Camera}
			}
			conds[k] = MetaCond{Column: col, Op: op, Val: Value{IsString: true, Str: lits[rng.Intn(len(lits))]}}
			continue
		}
		v := int64(rng.Intn(2001) - 1000)
		if len(meta) > 0 {
			i := rng.Intn(len(meta))
			if rng.Intn(3) == 0 {
				i = min(i/zoneRows*zoneRows+rng.Intn(2)*(zoneRows-1), len(meta)-1)
			}
			v = meta[i].TS
			if col == "id" {
				v = meta[i].ID
			}
			v += int64(rng.Intn(3) - 1)
		}
		if rng.Intn(8) == 0 {
			v = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}[rng.Intn(4)]
		}
		conds[k] = MetaCond{Column: col, Op: op, Val: Value{Int: v}}
	}
	return conds
}

// compileConds compiles conds against tab.
func compileConds(t testing.TB, tab *metaTable, conds []MetaCond) []metaFilter {
	t.Helper()
	filters := make([]metaFilter, len(conds))
	for k, mc := range conds {
		filters[k] = mustFilter(t, tab, mc.Column, mc.Op, mc.Val)
	}
	return filters
}

// filterCase is a table for the filter tests: its rows, and the columns and
// block index the DB would hold them as.
type filterCase struct {
	meta  []Metadata
	tab   metaTable
	zones []zone
	tail  zone
}

func newFilterCase(meta []Metadata) *filterCase {
	fc := &filterCase{meta: meta, tab: newMetaTable(meta)}
	fc.zones, fc.tail = extendZones(nil, &fc.tab), tailZone(&fc.tab)
	return fc
}

// checkFilterRows holds filterRows over fc's columns and block index to
// comparing every row of fc.meta against every comparison, and returns the
// rows it compared. The set it hands filterRows has every bit set, as a
// pooled set may: no row may stay live that a filter rejects.
func checkFilterRows(t testing.TB, fc *filterCase, conds []MetaCond) int {
	t.Helper()
	meta := fc.meta
	filters := compileConds(t, &fc.tab, conds)
	live := bitset.New(len(meta))
	live.SetAll()
	compared := filterRows(live, &fc.tab, fc.zones, fc.tail, filters)
	if live.Len() != len(meta) {
		t.Fatalf("live set of %d bits over %d rows", live.Len(), len(meta))
	}
	for i := range meta {
		want := true
		for k := range filters {
			want = want && filters[k].match(&meta[i])
		}
		if live.Get(i) != want {
			t.Fatalf("%d rows, filters %+v: row %d %+v is live=%v, want %v", len(meta), conds, i, meta[i], live.Get(i), want)
		}
	}
	if compared < 0 || compared > len(meta) {
		t.Fatalf("%d rows compared of %d", compared, len(meta))
	}
	return compared
}

// TestFilterRowsMatchesRowByRow holds the block-at-a-time filter to a row by
// row evaluation of the same compiled filters over every pairing of id and ts
// layouts, string columns of a few values, of dictionaries past 64 codes and
// of one value per block, tables whose trailing block has 0, 1, 1023 or 1024
// rows, each operator against each column over literals at, beside and far
// from the values — string literals some row holds and ones none does — and
// random conjunctions of them all.
func TestFilterRowsMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, zoneRows - 1, zoneRows, 2 * zoneRows, 2*zoneRows + 1, 3*zoneRows - 1, 3 * zoneRows} {
		for idLayout := 0; idLayout < layouts; idLayout++ {
			for tsLayout := 0; tsLayout < layouts; tsLayout++ {
				meta := filterTable(rng, n, idLayout, tsLayout)
				fc := newFilterCase(meta)
				for _, col := range []string{"id", "ts"} {
					for _, op := range filterOps {
						for _, v := range []int64{math.MinInt64, -1, 0, 7, 8, int64(n / 3), math.MaxInt64} {
							checkFilterRows(t, fc, []MetaCond{{Column: col, Op: op, Val: Value{Int: v}}})
						}
					}
				}
				for _, col := range []string{"location", "camera"} {
					for _, op := range filterOps {
						for _, v := range stringLiterals(meta, col) {
							checkFilterRows(t, fc, []MetaCond{{Column: col, Op: op, Val: Value{IsString: true, Str: v}}})
						}
					}
				}
				for q := 0; q < 20; q++ {
					checkFilterRows(t, fc, randomConds(rng, meta))
				}
			}
		}
	}
}

// FuzzFilterRows holds filterRows to the row-by-row evaluation on tables of
// up to three blocks and a trailing one, each integer column laid out as the
// fuzzer picks and each string column as the table's seed draws it, under up
// to four comparisons read four bytes each: column and literal kind,
// operator, and a 16-bit literal or row index. A string literal is a row's
// value or one of a few no row holds.
func FuzzFilterRows(f *testing.F) {
	f.Add(uint16(2*zoneRows+100), uint8(layoutAscending|layoutRuns<<4), []byte{0x03, 2, 0x10, 0x00, 0x03, 5, 0x90, 0x01})
	f.Add(uint16(zoneRows-1), uint8(layoutBlocks|layoutAscending<<4), []byte{0x07, 4, 0, 0, 0x08, 1, 0, 0, 0x01, 0, 0, 0})
	f.Add(uint16(3*zoneRows), uint8(layoutShuffled|layoutDescending<<4), []byte{0x0f, 3, 0x22, 0x01, 0x00, 0, 0xff, 0xff})
	f.Add(uint16(3*zoneRows+1), uint8(layoutConstant|layoutBlocks<<4), []byte{0x0d, 0, 0x40, 0x0c, 0x02, 2, 0x07, 0x00, 0x0e, 5, 0x00, 0x08})
	f.Fuzz(func(t *testing.T, rows uint16, layout uint8, spec []byte) {
		n := int(rows) % (3*zoneRows + 2)
		rng := rand.New(rand.NewSource(int64(rows)<<8 | int64(layout)))
		meta := filterTable(rng, n, int(layout&15)%layouts, int(layout>>4)%layouts)
		var conds []MetaCond
		for ; len(spec) >= 4 && len(conds) < 4; spec = spec[4:] {
			col, op := metaColumns[spec[0]&3], filterOps[int(spec[1])%len(filterOps)]
			lit := int64(int16(uint16(spec[2]) | uint16(spec[3])<<8))
			var row *Metadata
			switch spec[0] >> 2 & 3 {
			case 1:
				lit = math.MinInt64
			case 2:
				lit = math.MaxInt64
			case 3:
				if n > 0 {
					row = &meta[int(uint16(lit))%n]
					lit = row.TS
					if col == "id" {
						lit = row.ID
					}
				}
			}
			v := Value{Int: lit}
			if col == "location" || col == "camera" {
				lits := stringLiterals(meta, col)
				v = Value{IsString: true, Str: lits[int(uint16(lit))%len(lits)]}
				if row != nil {
					v.Str = row.Location
					if col == "camera" {
						v.Str = row.Camera
					}
				}
			}
			conds = append(conds, MetaCond{Column: col, Op: op, Val: v})
		}
		checkFilterRows(t, newFilterCase(meta), conds)
	})
}

// TestFilterRowsSearchesOrderedRows is the filter's cost shape: a ts window
// over append-ordered rows is decided by zones and binary searches, every
// trailing block included, and compares no row one by one at 10³, 10⁴ or 10⁵
// rows; over shuffled ts it must compare.
func TestFilterRowsSearchesOrderedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1000, 10000, 100000} {
		for _, shuffled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/shuffled=%v", n, shuffled), func(t *testing.T) {
				meta := make([]Metadata, n)
				for i := range meta {
					meta[i] = Metadata{ID: int64(i), TS: int64(i)}
				}
				if shuffled {
					for i, v := range rng.Perm(n) {
						meta[i].TS = int64(v)
					}
				}
				a, e := int64(n/3), int64(n/3+n/8)
				window := []MetaCond{{Column: "ts", Op: OpGe, Val: Value{Int: a}}, {Column: "ts", Op: OpLt, Val: Value{Int: e}}}
				fc := newFilterCase(meta)
				live := bitset.New(n)
				compared := filterRows(live, &fc.tab, fc.zones, fc.tail, compileConds(t, &fc.tab, window))
				if live.Count() != int(e-a) {
					t.Fatalf("window [%d,%d) holds %d rows, want %d", a, e, live.Count(), e-a)
				}
				switch {
				case !shuffled && compared != 0:
					t.Fatalf("an append-ordered ts window compared %d of %d rows, want 0", compared, n)
				case shuffled && compared == 0:
					t.Fatalf("a ts window over shuffled rows compared no row")
				}
				checkFilterRows(t, fc, window)
			})
		}
	}
}

// naiveIndex is the block index of meta computed value by value: each
// complete block's zone, and the trailing partial block's, over the string
// dictionaries it returns — each column's values in order of first
// appearance, a value's code its place there.
func naiveIndex(meta []Metadata) (zones []zone, tail zone, locations, cameras []string) {
	for _, m := range meta {
		if !slices.Contains(locations, m.Location) {
			locations = append(locations, m.Location)
		}
		if !slices.Contains(cameras, m.Camera) {
			cameras = append(cameras, m.Camera)
		}
	}
	codes := func(dict []string, vals []string) codeSet {
		var set uint64
		for _, v := range vals {
			c := slices.Index(dict, v)
			if c >= 64 {
				return unknownCodes
			}
			set |= 1 << c
		}
		return codeSet(set)
	}
	summary := func(rows []Metadata) zone {
		ids, tss := make([]int64, len(rows)), make([]int64, len(rows))
		locs, cams := make([]string, len(rows)), make([]string, len(rows))
		for i, m := range rows {
			ids[i], tss[i], locs[i], cams[i] = m.ID, m.TS, m.Location, m.Camera
		}
		return zone{
			idMin: slices.Min(ids), idMax: slices.Max(ids), tsMin: slices.Min(tss), tsMax: slices.Max(tss),
			idOrdered: slices.IsSorted(ids), tsOrdered: slices.IsSorted(tss),
			locations: codes(locations, locs), cameras: codes(cameras, cams),
		}
	}
	b := 0
	for ; (b+1)*zoneRows <= len(meta); b++ {
		zones = append(zones, summary(meta[b*zoneRows:(b+1)*zoneRows]))
	}
	if rest := meta[b*zoneRows:]; len(rest) > 0 {
		tail = summary(rest)
	}
	return zones, tail, locations, cameras
}

// checkIndex holds st's block index, trailing-block zone and dictionaries to
// naiveIndex over want, the rows st should hold, and its columns to want.
func checkIndex(t *testing.T, what string, st *readState, want []Metadata) {
	t.Helper()
	zones, tail, locations, cameras := naiveIndex(want)
	if st.n != len(want) || !reflect.DeepEqual(st.zones, zones) || st.tail != tail {
		t.Fatalf("%s: %d rows with zones %+v and tail %+v, want %d rows with %+v and %+v",
			what, st.n, st.zones, st.tail, len(want), zones, tail)
	}
	if !slices.Equal(st.meta.location.dict, locations) || !slices.Equal(st.meta.camera.dict, cameras) {
		t.Fatalf("%s: dictionaries %q and %q, want %q and %q", what, st.meta.location.dict, st.meta.camera.dict, locations, cameras)
	}
	for i, m := range want {
		if got := st.meta.row(i); got != m {
			t.Fatalf("%s: row %d holds %+v, want %+v", what, i, got, m)
		}
	}
}

// TestZonesFollowAppends: the block index gains an entry exactly when an
// append completes a block, an entry never changes afterwards, each records
// its min/max, whether its ids and its ts run in order and the codes of each
// string column it holds — unknown once a code passes 63, which the camera
// column's growing dictionary does on the way — every published state
// summarizes its trailing partial block the same way, and a state pinned
// before an append keeps the index, the trailing zone and the dictionaries
// it was published with.
func TestZonesFollowAppends(t *testing.T) {
	sysFixture(t)
	rng := rand.New(rand.NewSource(5))
	nextID := int64(0)
	rows := func(n int) ([]*img.Image, []Metadata) {
		meta := make([]Metadata, n)
		for i := range meta {
			nextID += int64(rng.Intn(3)) // append-ordered, with repeats
			meta[i] = Metadata{
				ID: nextID, TS: int64(rng.Intn(1 << 20)),
				Location: []string{"gate", "dock", ""}[rng.Intn(3)],
				Camera:   fmt.Sprintf("cam-%d", nextID/40), // a new camera every 40 ids
			}
		}
		return cycledImages(n), meta
	}
	db := buildSysDB(t)
	ims, meta := rows(zoneRows - 10)
	if err := db.LoadCorpus(ims, meta); err != nil {
		t.Fatal(err)
	}
	before := db.state.Load()
	checkIndex(t, "after load", before, meta)
	if len(before.zones) != 0 || !before.tail.idOrdered || before.tail.tsOrdered {
		t.Fatalf("%d rows: %d zones, trailing zone %+v; want none and ordered ids, unordered ts", before.n, len(before.zones), before.tail)
	}
	beforeTail := before.tail
	beforeCameras := slices.Clone(before.meta.camera.dict)
	all := append([]Metadata(nil), meta...)
	for _, batch := range []int{10, 1, zoneRows - 1, 3 * zoneRows, 5} {
		ims, meta := rows(batch)
		if _, err := db.Append(ims, meta); err != nil {
			t.Fatal(err)
		}
		all = append(all, meta...)
		checkIndex(t, fmt.Sprintf("after appending %d rows (%d total)", batch, len(all)), db.state.Load(), all)
	}
	if before.n != zoneRows-10 || len(before.zones) != 0 || before.tail != beforeTail || !slices.Equal(before.meta.camera.dict, beforeCameras) {
		t.Fatalf("a pinned state changed under its reader: %d rows, %d zones, trailing zone %+v (was %+v), %d cameras (was %d)",
			before.n, len(before.zones), before.tail, beforeTail, len(before.meta.camera.dict), len(beforeCameras))
	}
	st := db.state.Load()
	if len(st.meta.camera.dict) <= 64 || st.zones[0].cameras == unknownCodes || st.tail.cameras != unknownCodes {
		t.Fatalf("%d cameras, block 0's set %#x, trailing set %#x: want more than 64, a known first set and an unknown last one",
			len(st.meta.camera.dict), st.zones[0].cameras, st.tail.cameras)
	}
}

// TestZonesRebuiltOnRecovery: zones are derived state, and so are the codes
// and the dictionaries. Recovery rebuilds them from the checkpoint's
// metadata, extends them through the replayed journal, and a recovery that
// yields fewer rows than the caller loaded (a journal tail that never
// committed) leaves an index over exactly the recovered rows. The camera
// dictionary passes 64 codes in the second block, so the first block's
// camera set is known and the second's unknown.
func TestZonesRebuiltOnRecovery(t *testing.T) {
	env := durSetup(t)
	rows := func(base, n int) ([]*img.Image, []Metadata) {
		ims, meta := make([]*img.Image, n), make([]Metadata, n)
		for i := range meta {
			ims[i] = env.images[(base+i)%len(env.images)]
			meta[i] = Metadata{ID: int64(base + i), Location: []string{"disk", "gate"}[min(base, 1)],
				Camera: fmt.Sprintf("cam-%d", (base+i)/16), TS: int64(7 * (base + i))}
		}
		return ims, meta
	}
	storeDir, walDir := t.TempDir(), t.TempDir()
	ims, meta := rows(0, zoneRows-24)
	store := env.createStore(t, storeDir, 0)
	if err := store.IngestAll(ims); err != nil {
		t.Fatal(err)
	}
	db := New(env.cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, meta); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	all := append([]Metadata(nil), meta...)
	appendRows := func(n int) {
		ims, meta := rows(len(all), n)
		if _, err := db.Append(ims, meta); err != nil {
			t.Fatal(err)
		}
		all = append(all, meta...)
	}
	appendRows(100) // completes block 0; lands in the checkpoint
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointed := len(all)
	appendRows(zoneRows) // completes block 1; lives only in the journal
	checkIndex(t, "live", db.state.Load(), all)

	recoverInto := func(wdir string) *DB {
		sdir := t.TempDir()
		copyDir(t, storeDir, sdir)
		st2 := env.openStore(t, sdir)
		// The caller's metadata is a placeholder: its zones are all zero and
		// must not survive recovery.
		db2 := New(env.cm)
		if err := db2.LoadCorpusFromStore(st2, 1<<20, placeholderMeta(st2.Count())); err != nil {
			t.Fatal(err)
		}
		if _, err := db2.EnableDurability(DurabilityOptions{Dir: wdir}); err != nil {
			t.Fatal(err)
		}
		return db2
	}
	check := func(name string, db2 *DB, want []Metadata) {
		t.Helper()
		st := db2.state.Load()
		checkIndex(t, name, st, want)
		if !st.tail.idOrdered || !st.tail.tsOrdered || slices.ContainsFunc(st.zones, func(z zone) bool { return !z.idOrdered || !z.tsOrdered }) {
			t.Fatalf("%s: append-ordered rows with a block out of order: zones %+v, tail %+v", name, st.zones, st.tail)
		}
		// A ts window over rows [1050, 1200): it straddles the block edge and
		// the checkpointed row count, and over rows in order is searched.
		window := compileConds(t, &st.meta, []MetaCond{{Column: "ts", Op: OpGe, Val: Value{Int: 7350}}, {Column: "ts", Op: OpLt, Val: Value{Int: 8400}}})
		if compared := filterRows(bitset.New(st.n), &st.meta, st.zones, st.tail, window); compared != 0 {
			t.Fatalf("%s: the window compared %d rows one by one, want 0", name, compared)
		}
		res, err := db2.Query("SELECT COUNT(*) FROM images WHERE ts >= 7350 AND ts < 8400", core.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if wantCount := min(len(want), 1200) - 1050; res.Count != wantCount {
			t.Fatalf("%s: window count %d, want %d", name, res.Count, wantCount)
		}
		// No row is in 'roof': the dictionary decides the filter without a
		// zone or a row. Only the first block's camera set is known.
		if compared := filterRows(bitset.New(st.n), &st.meta, st.zones, st.tail, compileConds(t, &st.meta, []MetaCond{{Column: "location", Op: OpEq, Val: Value{IsString: true, Str: "roof"}}})); compared != 0 {
			t.Fatalf("%s: location = 'roof' compared %d rows, want 0", name, compared)
		}
		if st.zones[0].cameras == unknownCodes || len(st.zones) > 1 && st.zones[1].cameras != unknownCodes {
			t.Fatalf("%s: camera sets %#x", name, []codeSet{st.zones[0].cameras, st.zones[len(st.zones)-1].cameras})
		}
	}

	// Full journal: checkpoint (one block) + replay (a second).
	full := t.TempDir()
	copyDir(t, walDir, full)
	check("checkpoint + replay", recoverInto(full), all)

	// The journal's last record torn off: recovery stops at the checkpoint,
	// over a store (and caller metadata) that holds a block more.
	torn := t.TempDir()
	copyDir(t, walDir, torn)
	segs, err := filepath.Glob(filepath.Join(torn, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments: %v (%v)", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-9); err != nil {
		t.Fatal(err)
	}
	check("torn journal tail", recoverInto(torn), all[:checkpointed])
}

package vdb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"tahoma/internal/bitset"
	"tahoma/internal/core"
	"tahoma/internal/img"
)

// TestZoneVerdictSound checks, exhaustively over small ranges, that the block
// index never decides a block it should have scanned: "all" only when every
// value in the block's range passes, "none" only when no value can.
func TestZoneVerdictSound(t *testing.T) {
	for op := range acceptOrders {
		for lo := int64(-3); lo <= 3; lo++ {
			for hi := lo; hi <= 3; hi++ {
				for lit := int64(-4); lit <= 4; lit++ {
					f, err := compileFilter(MetaCond{Column: "ts", Op: op, Val: Value{Int: lit}})
					if err != nil {
						t.Fatal(err)
					}
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

// filterTable is n metadata rows with id and ts laid out as given and the
// string columns drawn from small sets.
func filterTable(rng *rand.Rand, n, idLayout, tsLayout int) []Metadata {
	ids, tss := layoutColumn(rng, n, idLayout), layoutColumn(rng, n, tsLayout)
	meta := make([]Metadata, n)
	for i := range meta {
		meta[i] = Metadata{
			ID: ids[i], TS: tss[i],
			Location: []string{"uptown", "downtown", ""}[rng.Intn(3)],
			Camera:   []string{"cam-1", "cam-2"}[rng.Intn(2)],
		}
	}
	return meta
}

var filterOps = []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// mustFilter compiles one comparison.
func mustFilter(t testing.TB, col string, op CompareOp, v Value) metaFilter {
	t.Helper()
	f, err := compileFilter(MetaCond{Column: col, Op: op, Val: v})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// randomFilters draws one to three comparisons over meta: an id or ts
// literal some row holds or one just off it, a block's first or last value,
// or an extreme of int64; a string literal from the columns' sets or none.
func randomFilters(t testing.TB, rng *rand.Rand, meta []Metadata) []metaFilter {
	filters := make([]metaFilter, 1+rng.Intn(3))
	for k := range filters {
		col := metaColumns[rng.Intn(len(metaColumns))]
		op := filterOps[rng.Intn(len(filterOps))]
		if col == "location" || col == "camera" {
			filters[k] = mustFilter(t, col, op, Value{IsString: true, Str: []string{"uptown", "downtown", "", "cam-1", "cam-2", "zzz"}[rng.Intn(6)]})
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
		filters[k] = mustFilter(t, col, op, Value{Int: v})
	}
	return filters
}

// checkFilterRows holds filterRows over meta's block index to comparing
// every row against every filter, and returns the rows it compared. The set
// it hands filterRows has every bit set, as a pooled set may: no row may
// stay live that a filter rejects.
func checkFilterRows(t testing.TB, meta []Metadata, filters []metaFilter) int {
	t.Helper()
	live := bitset.New(len(meta))
	live.SetAll()
	compared := filterRows(live, meta, extendZones(nil, meta), tailZone(meta), filters)
	if live.Len() != len(meta) {
		t.Fatalf("live set of %d bits over %d rows", live.Len(), len(meta))
	}
	for i := range meta {
		want := true
		for k := range filters {
			want = want && filters[k].match(&meta[i])
		}
		if live.Get(i) != want {
			t.Fatalf("%d rows, filters %+v: row %d %+v is live=%v, want %v", len(meta), filters, i, meta[i], live.Get(i), want)
		}
	}
	if compared < 0 || compared > len(meta) {
		t.Fatalf("%d rows compared of %d", compared, len(meta))
	}
	return compared
}

// TestFilterRowsMatchesRowByRow holds the block-at-a-time filter to a row by
// row evaluation of the same compiled filters over every pairing of id and ts
// layouts, tables whose trailing block has 0, 1, 1023 or 1024 rows, each
// operator against each column over literals at, beside and far from the
// values, and random conjunctions mixing in location and camera.
func TestFilterRowsMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, zoneRows - 1, zoneRows, 2 * zoneRows, 2*zoneRows + 1, 3*zoneRows - 1, 3 * zoneRows} {
		for idLayout := 0; idLayout < layouts; idLayout++ {
			for tsLayout := 0; tsLayout < layouts; tsLayout++ {
				meta := filterTable(rng, n, idLayout, tsLayout)
				for _, col := range []string{"id", "ts"} {
					for _, op := range filterOps {
						for _, v := range []int64{math.MinInt64, -1, 0, 7, 8, int64(n / 3), math.MaxInt64} {
							checkFilterRows(t, meta, []metaFilter{mustFilter(t, col, op, Value{Int: v})})
						}
					}
				}
				for q := 0; q < 20; q++ {
					checkFilterRows(t, meta, randomFilters(t, rng, meta))
				}
			}
		}
	}
}

// FuzzFilterRows holds filterRows to the row-by-row evaluation on tables of
// up to three blocks and a trailing one, each integer column laid out as the
// fuzzer picks, under up to four comparisons read four bytes each: column
// and literal kind, operator, and a 16-bit literal or row index.
func FuzzFilterRows(f *testing.F) {
	f.Add(uint16(2*zoneRows+100), uint8(layoutAscending|layoutRuns<<4), []byte{0x03, 2, 0x10, 0x00, 0x03, 5, 0x90, 0x01})
	f.Add(uint16(zoneRows-1), uint8(layoutBlocks|layoutAscending<<4), []byte{0x07, 4, 0, 0, 0x08, 1, 0, 0, 0x01, 0, 0, 0})
	f.Add(uint16(3*zoneRows), uint8(layoutShuffled|layoutDescending<<4), []byte{0x0f, 3, 0x22, 0x01, 0x00, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, rows uint16, layout uint8, spec []byte) {
		n := int(rows) % (3*zoneRows + 2)
		rng := rand.New(rand.NewSource(int64(rows)<<8 | int64(layout)))
		meta := filterTable(rng, n, int(layout&15)%layouts, int(layout>>4)%layouts)
		var filters []metaFilter
		for ; len(spec) >= 4 && len(filters) < 4; spec = spec[4:] {
			col, op := metaColumns[spec[0]&3], filterOps[int(spec[1])%len(filterOps)]
			lit := int64(int16(uint16(spec[2]) | uint16(spec[3])<<8))
			switch spec[0] >> 2 & 3 {
			case 1:
				lit = math.MinInt64
			case 2:
				lit = math.MaxInt64
			case 3:
				if n > 0 {
					m := meta[int(uint16(lit))%n]
					lit = m.TS
					if col == "id" {
						lit = m.ID
					}
				}
			}
			v := Value{Int: lit}
			if col == "location" || col == "camera" {
				v = Value{IsString: true, Str: []string{"uptown", "downtown", "", "cam-1", "cam-2"}[int(uint16(lit))%5]}
			}
			filters = append(filters, mustFilter(t, col, op, v))
		}
		checkFilterRows(t, meta, filters)
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
				window := []metaFilter{mustFilter(t, "ts", OpGe, Value{Int: a}), mustFilter(t, "ts", OpLt, Value{Int: e})}
				live := bitset.New(n)
				compared := filterRows(live, meta, extendZones(nil, meta), tailZone(meta), window)
				if live.Count() != int(e-a) {
					t.Fatalf("window [%d,%d) holds %d rows, want %d", a, e, live.Count(), e-a)
				}
				switch {
				case !shuffled && compared != 0:
					t.Fatalf("an append-ordered ts window compared %d of %d rows, want 0", compared, n)
				case shuffled && compared == 0:
					t.Fatalf("a ts window over shuffled rows compared no row")
				}
				checkFilterRows(t, meta, window)
			})
		}
	}
}

// naiveIndex is the block index of meta computed value by value: each
// complete block's zone, and the trailing partial block's.
func naiveIndex(meta []Metadata) (zones []zone, tail zone) {
	summary := func(rows []Metadata) zone {
		ids, tss := make([]int64, len(rows)), make([]int64, len(rows))
		for i, m := range rows {
			ids[i], tss[i] = m.ID, m.TS
		}
		return zone{
			idMin: slices.Min(ids), idMax: slices.Max(ids), tsMin: slices.Min(tss), tsMax: slices.Max(tss),
			idOrdered: slices.IsSorted(ids), tsOrdered: slices.IsSorted(tss),
		}
	}
	b := 0
	for ; (b+1)*zoneRows <= len(meta); b++ {
		zones = append(zones, summary(meta[b*zoneRows:(b+1)*zoneRows]))
	}
	if rest := meta[b*zoneRows:]; len(rest) > 0 {
		tail = summary(rest)
	}
	return zones, tail
}

// checkIndex holds st's block index and trailing-block zone to naiveIndex
// over want, the rows st should hold.
func checkIndex(t *testing.T, what string, st *readState, want []Metadata) {
	t.Helper()
	zones, tail := naiveIndex(want)
	if st.n != len(want) || !reflect.DeepEqual(st.zones, zones) || st.tail != tail {
		t.Fatalf("%s: %d rows with zones %+v and tail %+v, want %d rows with %+v and %+v",
			what, st.n, st.zones, st.tail, len(want), zones, tail)
	}
}

// TestZonesFollowAppends: the block index gains an entry exactly when an
// append completes a block, an entry never changes afterwards, each records
// its min/max and whether its ids and its ts run in order, every published
// state summarizes its trailing partial block the same way, and a state
// pinned before an append keeps the index and the trailing zone it was
// published with.
func TestZonesFollowAppends(t *testing.T) {
	sysFixture(t)
	rng := rand.New(rand.NewSource(5))
	nextID := int64(0)
	rows := func(n int) ([]*img.Image, []Metadata) {
		meta := make([]Metadata, n)
		for i := range meta {
			nextID += int64(rng.Intn(3)) // append-ordered, with repeats
			meta[i] = Metadata{ID: nextID, TS: int64(rng.Intn(1 << 20))}
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
	all := append([]Metadata(nil), meta...)
	for _, batch := range []int{10, 1, zoneRows - 1, 3 * zoneRows, 5} {
		ims, meta := rows(batch)
		if _, err := db.Append(ims, meta); err != nil {
			t.Fatal(err)
		}
		all = append(all, meta...)
		checkIndex(t, fmt.Sprintf("after appending %d rows (%d total)", batch, len(all)), db.state.Load(), all)
	}
	if before.n != zoneRows-10 || len(before.zones) != 0 || before.tail != beforeTail {
		t.Fatalf("a pinned state changed under its reader: %d rows, %d zones, trailing zone %+v (was %+v)",
			before.n, len(before.zones), before.tail, beforeTail)
	}
}

// TestZonesRebuiltOnRecovery: zones are derived state. Recovery rebuilds them
// from the checkpoint's metadata, extends them through the replayed journal,
// and a recovery that yields fewer rows than the caller loaded (a journal
// tail that never committed) leaves an index over exactly the recovered rows.
func TestZonesRebuiltOnRecovery(t *testing.T) {
	env := durSetup(t)
	rows := func(base, n int) ([]*img.Image, []Metadata) {
		ims, meta := make([]*img.Image, n), make([]Metadata, n)
		for i := range meta {
			ims[i] = env.images[(base+i)%len(env.images)]
			meta[i] = Metadata{ID: int64(base + i), Location: "disk", TS: int64(7 * (base + i))}
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
		window := []metaFilter{mustFilter(t, "ts", OpGe, Value{Int: 7350}), mustFilter(t, "ts", OpLt, Value{Int: 8400})}
		if compared := filterRows(bitset.New(st.n), st.meta, st.zones, st.tail, window); compared != 0 {
			t.Fatalf("%s: the window compared %d rows one by one, want 0", name, compared)
		}
		res, err := db2.Query("SELECT COUNT(*) FROM images WHERE ts >= 7350 AND ts < 8400", core.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if wantCount := min(len(want), 1200) - 1050; res.Count != wantCount {
			t.Fatalf("%s: window count %d, want %d", name, res.Count, wantCount)
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

package vdb

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/repstore"
	"tahoma/internal/xform"
)

// The differential suite runs the executor against a naive per-row oracle —
// the loop the bitset executor replaced: every row through a boxed
// value/compare pair into a row list, then per-step, per-row label lookups —
// over seeded random statements, column states, materialization modes,
// table shapes, engine sizings and physical corpora. The two share the plan
// (the ordering is the planner's, tested elsewhere) and nothing else.

// oracleValue and oracleCompare are the boxed per-row evaluation the
// compiled filters replaced, kept as the reference.
func oracleValue(m Metadata, col string) Value {
	switch col {
	case "id":
		return Value{Int: m.ID}
	case "location":
		return Value{IsString: true, Str: m.Location}
	case "camera":
		return Value{IsString: true, Str: m.Camera}
	case "ts":
		return Value{Int: m.TS}
	}
	panic("oracle: unknown column " + col)
}

func oracleCompare(a Value, op CompareOp, b Value) bool {
	if a.IsString != b.IsString {
		panic("oracle: type mismatch")
	}
	var c int
	if a.IsString {
		c = strings.Compare(a.Str, b.Str)
	} else {
		switch {
		case a.Int < b.Int:
			c = -1
		case a.Int > b.Int:
			c = 1
		}
	}
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	panic("oracle: unknown operator " + string(op))
}

// oracle mirrors a DB's table and materialized-column state row by row.
type oracle struct {
	meta  []Metadata
	truth map[matstore.Key][]bool // every row's label, valid or not
	valid map[matstore.Key][]bool // which rows the shared column holds
}

// execute is the reference executor over plan (for its step order and column
// identities only). It updates the oracle's column state
// the way a publication would.
func (o *oracle) execute(plan *queryPlan, matOff bool) *Result {
	q, n := plan.query, len(o.meta)
	var live []int
	for i, m := range o.meta {
		keep := true
		for _, mc := range q.Meta {
			if !oracleCompare(oracleValue(m, mc.Column), mc.Op, mc.Val) {
				keep = false
				break
			}
		}
		if keep {
			live = append(live, i)
		}
	}
	res := &Result{}
	project := func(live []int) *Result {
		if q.Limit > 0 && len(live) > q.Limit {
			live = live[:q.Limit]
		}
		res.Count = len(live)
		if q.CountStar {
			res.Columns = []string{"count"}
			res.Rows = [][]Value{{{Int: int64(len(live))}}}
			return res
		}
		res.Columns = q.Columns
		if q.Star {
			res.Columns = metaColumns
		}
		for _, idx := range live {
			var row []Value
			for _, col := range res.Columns {
				row = append(row, oracleValue(o.meta[idx], col))
			}
			res.Rows = append(res.Rows, row)
		}
		return res
	}
	if len(plan.content) == 0 {
		return project(live)
	}

	// A statement's private view of each distinct column.
	priv := make(map[matstore.Key][]bool)
	for _, k := range plan.keys {
		v := make([]bool, n)
		if !matOff {
			copy(v, o.valid[k])
		}
		priv[k] = v
	}
	keyOf := func(si int) matstore.Key { return plan.keys[plan.content[si].col] }
	missing := func(k matstore.Key, rows []int) []int {
		var out []int
		for _, idx := range rows {
			if !priv[k][idx] {
				out = append(out, idx)
			}
		}
		return out
	}

	seen := make(map[matstore.Key]bool)
	for si := range plan.content {
		if k := keyOf(si); !seen[k] {
			seen[k] = true
			res.MatHits += len(live) - len(missing(k, live))
		}
	}
	narrow := func(si int, rows []int) []int {
		var next []int
		for _, idx := range rows {
			if o.truth[keyOf(si)][idx] != plan.content[si].cond.Negated {
				next = append(next, idx)
			}
		}
		return next
	}

	// The bitmap short-circuit: the chain covered over its own survivors.
	chain, covered := live, true
	for si := range plan.content {
		if len(missing(keyOf(si), chain)) > 0 {
			covered = false
			break
		}
		chain = narrow(si, chain)
	}
	if covered {
		res.Bitmap = true
		return project(chain)
	}

	for si := range plan.content {
		k := keyOf(si)
		if miss := missing(k, live); len(miss) > 0 {
			positives := 0
			for _, idx := range miss {
				if o.truth[k][idx] {
					positives++
				}
				priv[k][idx] = true
			}
			res.UDFCalls += len(miss)
			res.Observed = append(res.Observed, ObservedSelectivity{
				Category: plan.content[si].pred.Category, Cascade: k.Cascade,
				Frames: len(miss), Positives: positives,
			})
		}
		live = narrow(si, live)
	}
	if !matOff {
		for k, v := range priv {
			if o.valid[k] == nil {
				o.valid[k] = make([]bool, n)
			}
			for i, ok := range v {
				o.valid[k][i] = o.valid[k][i] || ok
			}
		}
	}
	return project(live)
}

// diffFixture resolves, once, each predicate's materialized-column key under
// diffCons and its label for every distinct fixture image.
var diffCons = core.Constraints{MaxAccuracyLoss: 0.05}

var diffCategories = []string{"cloak", "cloak2", "coho"}

type diffFixture struct {
	keys  map[string]matstore.Key
	truth map[matstore.Key][]bool // per distinct image
}

func newDiffFixture(t testing.TB) *diffFixture {
	t.Helper()
	db := buildSysDB(t)
	db.SetMaterialization(MatOff)
	fx := &diffFixture{keys: map[string]matstore.Key{}, truth: map[matstore.Key][]bool{}}
	for _, cat := range diffCategories {
		sql := fmt.Sprintf("SELECT id FROM images WHERE contains_object('%s')", cat)
		plan, err := db.prepare(sql, diffCons)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(sql, diffCons)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]bool, len(sysImages))
		for _, row := range res.Rows {
			labels[row[0].Int] = true
		}
		fx.keys[cat], fx.truth[plan.keys[0]] = plan.keys[0], labels
	}
	return fx
}

// randomTable draws n metadata rows: ids with duplicates and negatives, ts
// append-ordered, shuffled or heavy with duplicates, two string columns.
func randomTable(rng *rand.Rand, n int) []Metadata {
	meta := make([]Metadata, n)
	tsMode := rng.Intn(3)
	for i := range meta {
		m := &meta[i]
		m.ID = int64(rng.Intn(2*n+1) - n/2)
		switch tsMode {
		case 0:
			m.TS = int64(i * 3)
		case 1:
			m.TS = int64(rng.Intn(3*n + 1))
		default:
			m.TS = int64(rng.Intn(4)) * 1000
		}
		m.Location = []string{"uptown", "downtown", ""}[rng.Intn(3)]
		m.Camera = []string{"cam-1", "cam-2"}[rng.Intn(2)]
	}
	return meta
}

// randomSQL draws one statement over meta's value ranges.
func randomSQL(rng *rand.Rand, meta []Metadata) string {
	var conds []string
	ops := []CompareOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for k := rng.Intn(4); k > 0; k-- {
		col := metaColumns[rng.Intn(len(metaColumns))]
		var lit string
		switch col {
		case "location", "camera":
			lit = "'" + []string{"uptown", "downtown", "", "cam-1", "cam-2", "zzz"}[rng.Intn(6)] + "'"
		default:
			// A value some row holds — every third time the minimum or
			// maximum of a whole block, where the block index decides — or
			// one just off it, or one far outside.
			field := func(m Metadata) int64 {
				if col == "ts" {
					return m.TS
				}
				return m.ID
			}
			v := int64(rng.Intn(7) - 3)
			if len(meta) > 0 {
				v += field(meta[rng.Intn(len(meta))])
			}
			if blocks := len(meta) / zoneRows; blocks > 0 && rng.Intn(3) == 0 {
				b := rng.Intn(blocks)
				edge := slices.MinFunc[[]Metadata]
				if rng.Intn(2) == 0 {
					edge = slices.MaxFunc[[]Metadata]
				}
				v = int64(rng.Intn(3)-1) + field(edge(meta[b*zoneRows:(b+1)*zoneRows], func(x, y Metadata) int {
					return cmp.Compare(field(x), field(y))
				}))
			}
			if rng.Intn(8) == 0 {
				v = []int64{-1 << 40, 1 << 40, -7, 0}[rng.Intn(4)]
			}
			lit = fmt.Sprint(v)
		}
		conds = append(conds, fmt.Sprintf("%s %s %s", col, ops[rng.Intn(len(ops))], lit))
	}
	for k := rng.Intn(4); k > 0; k-- {
		cond := fmt.Sprintf("contains_object('%s')", diffCategories[rng.Intn(len(diffCategories))])
		if rng.Intn(3) == 0 {
			cond = "NOT " + cond
		}
		conds = append(conds, cond)
	}
	rng.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })

	sql := "SELECT COUNT(*) FROM images"
	switch rng.Intn(3) {
	case 1:
		sql = "SELECT * FROM images"
	case 2:
		cols := make([]string, 1+rng.Intn(3))
		for i := range cols {
			cols[i] = metaColumns[rng.Intn(len(metaColumns))]
		}
		sql = "SELECT " + strings.Join(cols, ", ") + " FROM images"
	}
	if len(conds) > 0 {
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	if rng.Intn(3) == 0 {
		sql += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(len(meta)+5))
	}
	return sql
}

// seedColumn gives k a random resident state on db and the oracle alike:
// absent, a random subset, an all-valid prefix, or full.
func seedColumn(rng *rand.Rand, db *DB, o *oracle, k matstore.Key) {
	n := len(o.meta)
	var have func(i int) bool
	switch rng.Intn(4) {
	case 0:
		return
	case 1:
		p := rng.Float64()
		have = func(int) bool { return rng.Float64() < p }
	case 2:
		cut := rng.Intn(n + 1)
		have = func(i int) bool { return i < cut }
	default:
		have = func(int) bool { return true }
	}
	o.valid[k] = make([]bool, n)
	publishLabels(db, k, n, func(i int) (label, ok bool) {
		o.valid[k][i] = have(i)
		return o.truth[k][i], o.valid[k][i]
	})
}

// publishLabels makes row i of k's column hold label wherever ok, through the
// same publication every writer uses.
func publishLabels(db *DB, k matstore.Key, n int, row func(i int) (label, ok bool)) {
	fresh := matstore.NewColumn()
	fresh.Grow(n)
	for i := 0; i < n; i++ {
		if label, ok := row(i); ok {
			fresh.SetLabel(i, label)
		}
	}
	db.publish(db.state.Load(), []overlay{{key: k, col: fresh}})
}

// cycledImages is an n-row corpus of the fixture images, repeated.
func cycledImages(n int) []*img.Image {
	images := make([]*img.Image, n)
	for i := range images {
		images[i] = sysImages[i%len(sysImages)]
	}
	return images
}

// zooTransforms lists the distinct transforms the fixture systems' models
// read: the grid a store can serve.
func zooTransforms() []xform.Transform {
	var out []xform.Transform
	for _, sys := range []*core.System{cloakSys, cohoSys} {
		for _, m := range sys.Models {
			if !slices.Contains(out, m.Xform) {
				out = append(out, m.Xform)
			}
		}
	}
	return out
}

// oracleTable is one seeded table's physical draw: the engine's sizing and
// how the corpus is held and read. No answer may depend on any of it.
type oracleTable struct {
	n      int
	opts   exec.Options
	store  bool              // a repstore on disk behind a record cache, else in memory
	grid   []xform.Transform // the representations the store holds
	serve  bool              // ServeReps: served slots skip the derivation
	budget int64             // the record cache's bytes
}

func drawTable(rng *rand.Rand, n int) oracleTable {
	tb := oracleTable{
		n:    n,
		opts: exec.Options{Workers: []int{0, 1, 3}[rng.Intn(3)], Batch: []int{0, 1, 7}[rng.Intn(3)]},
	}
	if tb.store = rng.Intn(2) == 0; !tb.store {
		return tb
	}
	zoo := zooTransforms()
	if rng.Intn(3) == 0 {
		tb.grid = zoo
	} else {
		for _, t := range zoo {
			if rng.Intn(2) == 0 {
				tb.grid = append(tb.grid, t)
			}
		}
	}
	tb.serve = rng.Intn(3) != 0
	// Large enough for every run to be admitted, a tenth of the corpus's
	// sources (a publishing run over more than a fortieth of the rows reads
	// through), or one byte (every publishing run reads through).
	tb.budget = []int64{64 << 20, max(1, int64(n)*storedSource/10), 1}[rng.Intn(3)]
	return tb
}

func (tb oracleTable) fullGrid() bool {
	return tb.store && tb.serve && len(tb.grid) == len(zooTransforms())
}

func (tb oracleTable) String() string {
	corpus := "memory"
	if tb.store {
		reps := "derived"
		if tb.serve {
			reps = "served"
		}
		corpus = fmt.Sprintf("store-%dreps-%s-cache%d", len(tb.grid), reps, tb.budget)
	}
	return fmt.Sprintf("n%d-%s-w%d-b%d", tb.n, corpus, tb.opts.Workers, tb.opts.Batch)
}

// load installs the table's corpus, meta and settings on db.
func (tb oracleTable) load(t *testing.T, db *DB, meta []Metadata) {
	t.Helper()
	db.SetExecOptions(tb.opts)
	db.ServeReps(tb.serve)
	images := cycledImages(tb.n)
	if !tb.store {
		if err := db.LoadCorpus(images, meta); err != nil {
			t.Fatal(err)
		}
		return
	}
	store, err := repstore.Create(t.TempDir(), 16, 16, tb.grid)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := store.IngestAll(images); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCorpusFromStore(store, tb.budget, meta); err != nil {
		t.Fatal(err)
	}
}

// storedSource is the stored size of one fixture source record.
var storedSource = int64(img.EncodedSize(16, 16, img.RGB))

// checkStorePath holds one statement over a store-backed table to the
// invariants of the store path, given the record cache's counters before
// (was) and after (now) it ran.
func (tb oracleTable) checkStorePath(db *DB, res *Result, matOff bool, was, now repstore.CacheStats) error {
	if res.RepFallbacks != 0 {
		return fmt.Errorf("%d served reads fell back to derivation", res.RepFallbacks)
	}
	if !tb.serve && res.RepHits != 0 {
		return fmt.Errorf("%d reps served with ServeReps off", res.RepHits)
	}
	if tb.fullGrid() {
		if res.RepsMaterialized != 0 || res.UDFCalls > 0 && res.RepHits == 0 {
			return fmt.Errorf("the store serves the whole grid, yet %d reps were derived and %d served", res.RepsMaterialized, res.RepHits)
		}
		// Every slot is served, so no source record is ever read.
		view := db.state.Load().corpus.(*storeView)
		for i := 0; i < tb.n; i++ {
			if view.sc.cache.HasSource(i) {
				return fmt.Errorf("the store serves the whole grid, yet row %d's source record is resident", i)
			}
		}
	}
	if reads := now.Hits + now.Misses - was.Hits - was.Misses; reads < int64(res.RepHits) {
		return fmt.Errorf("%d reps served but the record cache counted %d reads", res.RepHits, reads)
	}
	if now.ResidentBytes > tb.budget+storedSource {
		return fmt.Errorf("a %d-byte record cache holds %d bytes, more than its budget plus one %d-byte source", tb.budget, now.ResidentBytes, storedSource)
	}
	// A run reads through exactly when it publishes its labels and its
	// rows' sources come to more than 1/scanShare of the budget. The first
	// such run of a statement misses at least once when the cache holds
	// fewer bytes than its rows at the smallest stored size.
	minRecord := storedSource
	for _, t := range tb.grid {
		minRecord = min(minRecord, int64(t.StoredBytes()))
	}
	scans, mustMiss := false, false
	for k, ob := range res.Observed {
		if !matOff && scanShare*int64(ob.Frames)*storedSource > tb.budget {
			scans = true
			mustMiss = mustMiss || k == 0 && was.ResidentBytes < int64(ob.Frames)*minRecord
		}
	}
	if through := now.ReadThrough - was.ReadThrough; !scans && through != 0 || mustMiss && through == 0 {
		return fmt.Errorf("%d records read through (observed %+v, budget %d, %d bytes resident before)", through, res.Observed, tb.budget, was.ResidentBytes)
	}
	return nil
}

// cheapestFirst reports whether plan runs its content steps in ascending
// order of the evaluator's expected cost, ties in textual order.
func cheapestFirst(plan *queryPlan) bool {
	byInput := make([]float64, len(plan.content))
	for k, ps := range plan.pp.Steps {
		byInput[ps.Input] = plan.content[k].expected.AvgCost
	}
	want := make([]int, len(byInput))
	for i := range want {
		want[i] = i
	}
	slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(byInput[a], byInput[b]) })
	for k, ps := range plan.pp.Steps {
		if ps.Input != want[k] {
			return false
		}
	}
	return true
}

// TestExecutorMatchesNaiveOracle is vdb's parity suite. Each seeded table
// draws its engine sizing (workers × batch), its corpus (in memory, or a
// repstore on disk behind a record cache from one byte to 64 MiB), the
// representations the store holds and whether they are served, and the
// resident state of every column; then each statement's answer, work and
// published columns must be the oracle's. The physical draw changes cost
// only, so one oracle holds every draw. Store tables also meet the store
// path's invariants (checkStorePath).
func TestExecutorMatchesNaiveOracle(t *testing.T) {
	fx := newDiffFixture(t)
	// Row counts straddling word and block boundaries; the multi-block table
	// is drawn rarely because every classification of it is real inference.
	sizes := []int{0, 1, 63, 64, 65, 1023, 1025}
	tables, perTable := 300, 7
	if testing.Short() || raceEnabled {
		tables = 40
	}
	db := buildSysDB(t)
	var cases, bitmaps, chained, classified, partial, repeated, reordered, served, readThrough int
	byCorpus, byWorkers, byBatch := map[bool]int{}, map[int]int{}, map[int]int{}
	for ti := 0; ti < tables; ti++ {
		rng := rand.New(rand.NewSource(int64(1000 + ti)))
		n := sizes[ti%len(sizes)]
		if ti%20 == 19 {
			n = 5000
		}
		o := &oracle{meta: randomTable(rng, n), truth: map[matstore.Key][]bool{}, valid: map[matstore.Key][]bool{}}
		for k, perImage := range fx.truth {
			o.truth[k] = make([]bool, n)
			for i := range o.truth[k] {
				o.truth[k][i] = perImage[i%len(perImage)]
			}
		}
		tb := drawTable(rng, n)
		t.Run(fmt.Sprintf("%03d-%s", ti, tb), func(t *testing.T) {
			tb.load(t, db, slices.Clone(o.meta))
			for _, cat := range diffCategories {
				seedColumn(rng, db, o, fx.keys[cat])
			}
			for qi := 0; qi < perTable; qi++ {
				matOff := rng.Intn(4) == 0
				if matOff {
					db.SetMaterialization(MatOff)
				} else {
					db.SetMaterialization(MatOn)
				}
				sql := randomSQL(rng, o.meta)
				plan, err := db.prepare(sql, diffCons)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				want := o.execute(plan, matOff)
				was, _ := db.RepCacheStats()
				got, err := db.Query(sql, diffCons)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				where := fmt.Sprintf("query %d (matOff=%v): %s", qi, matOff, sql)
				if got.Count != want.Count || got.UDFCalls != want.UDFCalls || got.MatHits != want.MatHits ||
					got.Bitmap != want.Bitmap {
					t.Fatalf("%s\n got count=%d udf=%d hits=%d bitmap=%v\nwant count=%d udf=%d hits=%d bitmap=%v",
						where, got.Count, got.UDFCalls, got.MatHits, got.Bitmap,
						want.Count, want.UDFCalls, want.MatHits, want.Bitmap)
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s\nrows differ:\n got %v %v\nwant %v %v", where, got.Columns, got.Rows, want.Columns, want.Rows)
				}
				if !reflect.DeepEqual(got.Observed, want.Observed) {
					t.Fatalf("%s\nobserved selectivities differ:\n got %+v\nwant %+v", where, got.Observed, want.Observed)
				}
				// The published columns hold exactly the oracle's rows, with the
				// oracle's labels.
				for _, k := range plan.keys {
					col := db.mat.Columns().Get(k)
					for i := 0; i < n; i++ {
						have := i < col.Len() && col.Valid(i)
						if have != (o.valid[k] != nil && o.valid[k][i]) || (have && col.Label(i) != o.truth[k][i]) {
							t.Fatalf("%s\ncolumn %v row %d: valid=%v, oracle valid=%v", where, k, i, have, !have)
						}
					}
				}
				now, _ := db.RepCacheStats()
				if tb.store {
					if err := tb.checkStorePath(db, got, matOff, was, now); err != nil {
						t.Fatalf("%s\n%v", where, err)
					}
				} else if got.RepHits != 0 || got.RepFallbacks != 0 {
					t.Fatalf("%s\nan in-memory corpus served %d reps (%d fell back)", where, got.RepHits, got.RepFallbacks)
				}
				cases++
				if got.UDFCalls > 0 {
					byCorpus[tb.store]++
					byWorkers[tb.opts.Workers]++
					byBatch[tb.opts.Batch]++
				}
				for _, hit := range []struct {
					tally *int
					is    bool
				}{
					{&bitmaps, got.Bitmap}, {&chained, len(got.Observed) >= 2}, {&classified, got.UDFCalls > 0},
					{&partial, got.UDFCalls > 0 && got.MatHits > 0},
					{&repeated, len(plan.keys) < len(plan.content)},
					{&reordered, len(plan.content) >= 2 && !cheapestFirst(plan)},
					{&served, got.RepHits > 0}, {&readThrough, now.ReadThrough > was.ReadThrough},
				} {
					if hit.is {
						*hit.tally++
					}
				}
			}
		})
	}
	t.Logf("%d statements checked against the naive oracle: %d bitmap-served, %d classified (%d over partly resident columns, %d in two or more steps); %d name one column twice, %d run in an order other than cheapest-first",
		cases, bitmaps, classified, partial, chained, repeated, reordered)
	t.Logf("classified statements: memory %d, store %d; workers 0/1/3: %d/%d/%d; batch 0/1/7: %d/%d/%d; %d served reps, %d read through",
		byCorpus[false], byCorpus[true], byWorkers[0], byWorkers[1], byWorkers[3], byBatch[0], byBatch[1], byBatch[7], served, readThrough)
	if testing.Short() || raceEnabled {
		return
	}
	floors := []struct {
		what      string
		got, want int
	}{
		{"statements", cases, 2000}, {"bitmap-served", bitmaps, 100}, {"chained", chained, 20}, {"partial", partial, 100},
		{"repeated column", repeated, 300}, {"reordered", reordered, 150},
		{"memory", byCorpus[false], 150}, {"store", byCorpus[true], 150},
		{"workers=0", byWorkers[0], 100}, {"workers=1", byWorkers[1], 100}, {"workers=3", byWorkers[3], 100},
		{"batch=0", byBatch[0], 100}, {"batch=1", byBatch[1], 100}, {"batch=7", byBatch[7], 100},
		{"served", served, 70}, {"read-through", readThrough, 60},
	}
	for _, f := range floors {
		if f.got < f.want {
			t.Errorf("%s: %d statements, floor %d: the seeded draw no longer reaches this path often enough; rebalance it", f.what, f.got, f.want)
		}
	}
}

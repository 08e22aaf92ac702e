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
	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/planner"
)

// The differential suite runs the executor against a naive per-row oracle —
// the loop the bitset executor replaced: every row through a boxed
// value/compare pair into a row list, then per-step, per-row label lookups —
// over seeded random statements, column states, materialization modes and
// table shapes. The two share the plan (ordering and the fusion decision are
// the planner's, tested elsewhere) and nothing else.

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

// execute is the reference executor over plan (for its step order, column
// identities and fusion verdict only). It updates the oracle's column state
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

	pending, shares := 0, false
	slotUsers := make(map[string]int)
	seen := make(map[matstore.Key]bool)
	for si, cs := range plan.content {
		k := keyOf(si)
		if seen[k] {
			continue
		}
		seen[k] = true
		miss := missing(k, live)
		res.MatHits += len(live) - len(miss)
		if len(miss) == 0 {
			continue
		}
		pending++
		seenSlots := make(map[string]bool)
		for _, ref := range cs.spec.Levels() {
			id := cs.pred.System.Models[ref.Model].Xform.ID()
			if !seenSlots[id] {
				seenSlots[id] = true
				slotUsers[id]++
				shares = shares || slotUsers[id] >= 2
			}
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

	res.Fused = pending >= 2 && shares && plan.pp.Fusion.Fuse
	for lo := 0; lo < len(plan.content); {
		hi := lo + 1
		if res.Fused {
			hi = len(plan.content)
		}
		taken := make(map[matstore.Key]bool)
		var classified []matstore.Key
		for si := lo; si < hi; si++ {
			k := keyOf(si)
			miss := missing(k, live)
			if taken[k] || len(miss) == 0 {
				continue
			}
			taken[k] = true
			positives := 0
			for _, idx := range miss {
				if o.truth[k][idx] {
					positives++
				}
			}
			res.UDFCalls += len(miss)
			res.Observed = append(res.Observed, ObservedSelectivity{
				Category: plan.content[si].pred.Category, Cascade: k.Cascade,
				Frames: len(miss), Positives: positives,
			})
			classified = append(classified, k)
		}
		// Labels land only after the whole stride picked its rows, as one
		// engine run over the union delivers them.
		for _, k := range classified {
			for _, idx := range missing(k, live) {
				priv[k][idx] = true
			}
		}
		for ; lo < hi; lo++ {
			live = narrow(lo, live)
		}
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
	db := buildFusedDB(t)
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
		labels := make([]bool, len(fusedImages))
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
		images[i] = fusedImages[i%len(fusedImages)]
	}
	return images
}

func TestExecutorMatchesNaiveOracle(t *testing.T) {
	fx := newDiffFixture(t)
	// Row counts straddling word and block boundaries; the multi-block table
	// is drawn rarely because every classification of it is real inference.
	sizes := []int{0, 1, 63, 64, 65, 1023, 1025}
	tables, perTable := 300, 7
	if testing.Short() || raceEnabled {
		tables = 40
	}
	db := buildFusedDB(t)
	var cases, bitmaps, fused, classified, partial int
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
		if err := db.LoadCorpus(cycledImages(n), slices.Clone(o.meta)); err != nil {
			t.Fatal(err)
		}
		db.setPlanOptions(planner.Options{
			Order:  []planner.Order{planner.OrderRank, planner.OrderStatic}[rng.Intn(2)],
			Fusion: []planner.FusionPolicy{planner.FusionCost, planner.FusionShared, planner.FusionNever}[rng.Intn(3)],
		})
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
				t.Fatalf("table %d: %s: %v", ti, sql, err)
			}
			want := o.execute(plan, matOff)
			got, err := db.Query(sql, diffCons)
			if err != nil {
				t.Fatalf("table %d: %s: %v", ti, sql, err)
			}
			where := fmt.Sprintf("table %d (%d rows, matOff=%v) query %d: %s", ti, n, matOff, qi, sql)
			if got.Count != want.Count || got.UDFCalls != want.UDFCalls || got.MatHits != want.MatHits ||
				got.Bitmap != want.Bitmap || got.Fused != want.Fused {
				t.Fatalf("%s\n got count=%d udf=%d hits=%d bitmap=%v fused=%v\nwant count=%d udf=%d hits=%d bitmap=%v fused=%v",
					where, got.Count, got.UDFCalls, got.MatHits, got.Bitmap, got.Fused,
					want.Count, want.UDFCalls, want.MatHits, want.Bitmap, want.Fused)
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
				col := db.mat.Column(k)
				for i := 0; i < n; i++ {
					have := i < col.Len() && col.Valid(i)
					if have != (o.valid[k] != nil && o.valid[k][i]) || (have && col.Label(i) != o.truth[k][i]) {
						t.Fatalf("%s\ncolumn %v row %d: valid=%v, oracle valid=%v", where, k, i, have, !have)
					}
				}
			}
			cases++
			for _, hit := range []struct {
				tally *int
				is    bool
			}{{&bitmaps, got.Bitmap}, {&fused, got.Fused}, {&classified, got.UDFCalls > 0}, {&partial, got.UDFCalls > 0 && got.MatHits > 0}} {
				if hit.is {
					*hit.tally++
				}
			}
		}
	}
	t.Logf("%d statements checked against the naive oracle: %d bitmap-served, %d classified (%d over partly resident columns, %d fused)",
		cases, bitmaps, classified, partial, fused)
	if !testing.Short() && !raceEnabled && (cases < 2000 || bitmaps < 100 || fused < 20 || partial < 100) {
		t.Fatal("the seeded draw no longer reaches every executor path often enough; rebalance it")
	}
}

package vdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tahoma/internal/core"
)

// BenchmarkDashboardStatement times one bitmap-served statement of each shape
// the dashboard_repeat workload sends, in process: 32 000 rows with both
// predicates' columns resident — no inference, so what is measured is parse +
// plan + filter + bitmap algebra + projection — plus the two-predicate chain
// whose second column covers only the first one's survivors, and the window
// count over rows whose ts is shuffled, where no block is in order and the
// metadata filter compares the straddling blocks row by row, and
// location_eq, a count under string equality over a table whose first half
// is in one location and second half in another, where each block's
// location codes decide it without comparing a row. A repeated
// statement runs the plan its read state kept; count_window_fresh is the
// window count with a new window on every iteration, cycling through 128
// texts on a state whose plan table the warm-up filled with others, so every
// iteration parses and plans. It goes through the public API only, so it
// measures an earlier commit unchanged.
func BenchmarkDashboardStatement(b *testing.B) {
	const rows = 32000
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	build := func(shuffle, twoLocations bool) *DB {
		sysFixture(b)
		meta := make([]Metadata, rows)
		for i := range meta {
			meta[i] = Metadata{ID: int64(i), Location: "uptown", Camera: "cam-1", TS: int64(i)}
			if twoLocations && i >= rows/2 {
				meta[i].Location = "gate"
			}
		}
		if shuffle {
			for i, ts := range rand.New(rand.NewSource(1)).Perm(rows) {
				meta[i].TS = int64(ts)
			}
		}
		db := buildSysDB(b)
		if err := db.LoadCorpus(cycledImages(rows), meta); err != nil {
			b.Fatal(err)
		}
		return db
	}
	window := func(lo int) string {
		return fmt.Sprintf("SELECT COUNT(*) FROM images WHERE ts >= %d AND ts < %d AND contains_object('cloak')", lo, lo+rows/8)
	}
	fresh := make([]string, 128)
	for i := range fresh {
		fresh[i] = window(9001 + i)
	}
	// The DBs are warmed once for all sub-benchmarks: the panels' by two
	// whole-table statements, the chain's by the chain itself, which leaves
	// its second column valid only where the first one passed. Then every
	// statement a sub-benchmark repeats runs once, and the panels' state is
	// sent 256 filler statements, more than any plan table it keeps holds,
	// so none of the fresh windows finds a plan kept.
	var once sync.Once
	var panels, chain, shuffled, located *DB
	const chainSQL = "SELECT COUNT(*) FROM images WHERE contains_object('cloak') AND contains_object('coho')"
	type stmt struct {
		db  **DB
		sql []string // run in turn, one per iteration
	}
	benches := []struct {
		name string
		stmt
	}{
		{"count", stmt{&panels, []string{"SELECT COUNT(*) FROM images WHERE contains_object('cloak')"}}},
		{"count_and_not", stmt{&panels, []string{"SELECT COUNT(*) FROM images WHERE contains_object('cloak') AND NOT contains_object('coho')"}}},
		{"count_window", stmt{&panels, []string{window(9000)}}},
		{"count_window_fresh", stmt{&panels, fresh}},
		{"select_window", stmt{&panels, []string{fmt.Sprintf("SELECT id FROM images WHERE ts >= %d AND ts < %d AND contains_object('cloak')", 21000, 21000+rows/64)}}},
		{"chain", stmt{&chain, []string{chainSQL}}},
		{"count_window_shuffled", stmt{&shuffled, []string{window(9000)}}},
		{"location_eq", stmt{&located, []string{"SELECT COUNT(*) FROM images WHERE location = 'gate' AND contains_object('cloak')"}}},
	}
	warm := func() {
		panels, chain, shuffled, located = build(false, false), build(false, false), build(true, false), build(false, true)
		steps := []stmt{
			{&panels, []string{"SELECT COUNT(*) FROM images WHERE contains_object('cloak')", "SELECT COUNT(*) FROM images WHERE contains_object('coho')"}},
			{&chain, []string{chainSQL}},
			{&shuffled, []string{"SELECT COUNT(*) FROM images WHERE contains_object('cloak')"}},
			{&located, []string{"SELECT COUNT(*) FROM images WHERE contains_object('cloak')"}},
		}
		for _, bc := range benches {
			if len(bc.sql) == 1 {
				steps = append(steps, bc.stmt)
			}
		}
		for i := range 256 {
			steps = append(steps, stmt{&panels, []string{fmt.Sprintf("SELECT COUNT(*) FROM images WHERE id != %d", -1-i)}})
		}
		for _, st := range steps {
			for _, sql := range st.sql {
				if _, err := (*st.db).Query(sql, cons); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, bc := range benches {
		b.Run(bc.name, func(b *testing.B) {
			once.Do(warm)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				sql := bc.sql[i%len(bc.sql)]
				i++
				res, err := (*bc.db).Query(sql, cons)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Bitmap || res.UDFCalls != 0 {
					b.Fatalf("%s: bitmap=%v udf=%d, want a bitmap-served statement", sql, res.Bitmap, res.UDFCalls)
				}
			}
		})
	}
}

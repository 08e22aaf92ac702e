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
// metadata filter compares the straddling blocks row by row. It goes through
// the public API only, so it measures an earlier commit unchanged.
func BenchmarkDashboardStatement(b *testing.B) {
	const rows = 32000
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	build := func(shuffle bool) *DB {
		sysFixture(b)
		meta := make([]Metadata, rows)
		for i := range meta {
			meta[i] = Metadata{ID: int64(i), Location: "uptown", Camera: "cam-1", TS: int64(i)}
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
	// Both DBs are warmed once for all sub-benchmarks: the panels' by two
	// whole-table statements, the chain's by the chain itself, which leaves
	// its second column valid only where the first one passed.
	var once sync.Once
	var panels, chain, shuffled *DB
	const chainSQL = "SELECT COUNT(*) FROM images WHERE contains_object('cloak') AND contains_object('coho')"
	warm := func() {
		panels, chain, shuffled = build(false), build(false), build(true)
		for _, q := range []struct {
			db  *DB
			sql string
		}{
			{panels, "SELECT COUNT(*) FROM images WHERE contains_object('cloak')"},
			{panels, "SELECT COUNT(*) FROM images WHERE contains_object('coho')"},
			{chain, chainSQL},
			{shuffled, "SELECT COUNT(*) FROM images WHERE contains_object('cloak')"},
		} {
			if _, err := q.db.Query(q.sql, cons); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, bc := range []struct {
		name string
		db   **DB
		sql  string
	}{
		{"count", &panels, "SELECT COUNT(*) FROM images WHERE contains_object('cloak')"},
		{"count_and_not", &panels, "SELECT COUNT(*) FROM images WHERE contains_object('cloak') AND NOT contains_object('coho')"},
		{"count_window", &panels, fmt.Sprintf("SELECT COUNT(*) FROM images WHERE ts >= %d AND ts < %d AND contains_object('cloak')", 9000, 9000+rows/8)},
		{"select_window", &panels, fmt.Sprintf("SELECT id FROM images WHERE ts >= %d AND ts < %d AND contains_object('cloak')", 21000, 21000+rows/64)},
		{"chain", &chain, chainSQL},
		{"count_window_shuffled", &shuffled, fmt.Sprintf("SELECT COUNT(*) FROM images WHERE ts >= %d AND ts < %d AND contains_object('cloak')", 9000, 9000+rows/8)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			once.Do(warm)
			b.ReportAllocs()
			for b.Loop() {
				res, err := (*bc.db).Query(bc.sql, cons)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Bitmap || res.UDFCalls != 0 {
					b.Fatalf("%s: bitmap=%v udf=%d, want a bitmap-served statement", bc.sql, res.Bitmap, res.UDFCalls)
				}
			}
		})
	}
}

package vdb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/img"
)

// TestAppendExtendsColumns: under a trigger policy, Append must extend the
// materialized bitmaps — not corrupt them — even with queries in flight, so
// the post-ingest repeat query still runs on the bitmap path and agrees
// with a fresh DB over the same final corpus.
func TestAppendExtendsColumns(t *testing.T) {
	_, splits := concSystem(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	const sql = "SELECT id FROM images WHERE contains_object('cloak')"

	db := buildConcurrentDB(t)
	db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: cons})
	if _, err := db.Query(sql, cons); err != nil {
		t.Fatal(err)
	}
	base := db.Count()

	// Concurrent queries while the trigger classifies the appended rows.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := db.Query(sql, cons); err != nil {
				errs <- err
				return
			}
		}
	}()
	pool := splits.Train.Examples
	var ims []*img.Image
	var meta []Metadata
	for r := 0; r < 6; r++ {
		ims = append(ims, pool[r].Image)
		id := int64(base + r)
		meta = append(meta, Metadata{ID: id, Location: "ingest", Camera: "cam-2", TS: id * 10})
	}
	if _, err := db.Append(ims, meta); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bitmap || res.UDFCalls != 0 {
		t.Fatalf("post-ingest repeat: bitmap=%v udf=%d, want bitmap path (trigger must have extended the column)",
			res.Bitmap, res.UDFCalls)
	}
	fresh := buildConcurrentDB(t)
	if _, err := fresh.Append(ims, meta); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(want) {
		t.Fatalf("extended column diverges from fresh DB:\n got %s\nwant %s", resultKey(res), resultKey(want))
	}
}

// TestColumnsBoundedByFrontier: the materialized columns need no byte
// budget. A column exists only for a cascade the planner picked from its
// predicate's frontier, so however the constraints sweep — every accuracy
// budget in [0,1), under several throughput floors — a predicate keeps at
// most len(Frontier) columns, and each costs two bitmaps of ⌈rows/64⌉ words.
func TestColumnsBoundedByFrontier(t *testing.T) {
	for _, cat := range []string{"cloak", "cloak2", "coho"} {
		t.Run(cat, func(t *testing.T) {
			db := buildSysDB(t)
			front := db.state.Load().predicates[cat].Frontier
			floors := []float64{0}
			for _, p := range front {
				floors = append(floors, p.Throughput)
			}
			sql := fmt.Sprintf("SELECT COUNT(*) FROM images WHERE contains_object('%s')", cat)
			for _, floor := range floors {
				for step := 0; step < 20; step++ {
					cons := core.Constraints{MaxAccuracyLoss: float64(step) / 20, MinThroughput: floor}
					if _, err := db.Query(sql, cons); err != nil {
						t.Fatalf("%+v: %v", cons, err)
					}
				}
			}
			st := db.MatStats()
			if st.Columns < 1 || st.Columns > len(front) {
				t.Fatalf("%d columns for a %d-point frontier", st.Columns, len(front))
			}
			if bound := int64(st.Columns) * 2 * int64((st.Rows+63)/64) * 8; st.Bytes > bound {
				t.Fatalf("%d bytes in %d columns over %d rows, bound %d", st.Bytes, st.Columns, st.Rows, bound)
			}
			t.Logf("%d of %d frontier cascades materialized, %d bytes", st.Columns, len(front), st.Bytes)
		})
	}
}

// TestAnalyzerConverges: the background analyzer pre-materializes the
// predicates queries touched until full coverage, after which the repeat
// query is a bitmap lookup — bit-identical to inference.
func TestAnalyzerConverges(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	const sql = "SELECT id FROM images WHERE contains_object('cloak')"
	db := buildConcurrentDB(t)
	db.SetMaterialization(MatBg)
	// A narrow query creates usage + partial coverage (10 of 40 rows); the
	// analyzer owes the remaining 30.
	if _, err := db.Query("SELECT id FROM images WHERE ts < 100 AND contains_object('cloak')", cons); err != nil {
		t.Fatal(err)
	}
	stop, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{
		Interval: time.Millisecond, BatchRows: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for db.MatStats().CoveredRows < int64(db.Count()) {
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("analyzer never converged: %+v", db.MatStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	st := db.MatStats()
	if st.AnalyzerBatches == 0 || st.AnalyzerRows < 30 {
		t.Fatalf("analyzer progress not recorded: %+v", st)
	}
	res, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bitmap || res.UDFCalls != 0 {
		t.Fatalf("post-analyzer query: bitmap=%v udf=%d, want free lookup", res.Bitmap, res.UDFCalls)
	}
	fresh := buildConcurrentDB(t)
	want, err := fresh.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(want) {
		t.Fatalf("analyzer labels diverge from inference:\n got %s\nwant %s", resultKey(res), resultKey(want))
	}
}

// TestAnalyzerGuards: under MatOff the resident columns are neither
// reported nor explained and the analyzer does not start; double-start
// fails, stop is idempotent, and a stopped analyzer can be restarted.
func TestAnalyzerGuards(t *testing.T) {
	const sql = "SELECT id FROM images WHERE contains_object('cloak')"
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	db := buildConcurrentDB(t)
	if _, err := db.Query(sql, cons); err != nil {
		t.Fatal(err)
	}
	db.SetMaterialization(MatOff)
	if st := db.MatStats(); st.Mode != "off" {
		t.Fatalf("MatStats under MatOff: %+v", st)
	}
	out, err := db.Explain(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "materialized") {
		t.Fatalf("MatOff explain mentions the resident column:\n%s", out)
	}
	if _, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{}); err == nil {
		t.Fatal("analyzer started under MatOff")
	}
	db.SetMaterialization(MatOn)
	stop, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{}); err == nil {
		t.Fatal("second analyzer started over a running one")
	}
	stop()
	stop() // idempotent
	stop2, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{})
	if err != nil {
		t.Fatalf("restart after stop: %v", err)
	}
	stop2()
}

// TestAnalyzerInvalidationMidRun: a corpus swap while the analyzer holds a
// mid-batch snapshot must not leak stale labels into the new generation.
func TestAnalyzerInvalidationMidRun(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	_, splits := concSystem(t)
	db := buildConcurrentDB(t)
	db.SetMaterialization(MatBg)
	if _, err := db.Query("SELECT id FROM images WHERE ts < 100 AND contains_object('cloak')", cons); err != nil {
		t.Fatal(err)
	}
	stop, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{Interval: time.Millisecond, BatchRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Swap the corpus under the analyzer: different images, same shape.
	var images []*img.Image
	var meta []Metadata
	for i := 0; i < 20; i++ {
		images = append(images, splits.Train.Examples[i].Image)
		meta = append(meta, Metadata{ID: int64(i), Location: "swap", Camera: "cam-3", TS: int64(i * 10)})
	}
	if err := db.LoadCorpus(images, meta); err != nil {
		t.Fatal(err)
	}
	// Let the analyzer churn against the new generation, then verify the
	// swapped corpus classifies identically to a fresh DB over it.
	time.Sleep(20 * time.Millisecond)
	res, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	fresh := buildConcurrentDB(t)
	if err := fresh.LoadCorpus(images, meta); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(want) {
		t.Fatalf("stale labels leaked across the corpus swap:\n got %s\nwant %s", resultKey(res), resultKey(want))
	}
}

// TestAnalyzerIdleStress is the -race coverage for the analyzer goroutine:
// queries, trigger-time Append and background materialization interleave
// under a flapping idle gate, then the analyzer shuts down deterministically
// and the final state matches a fresh DB over the same corpus.
func TestAnalyzerIdleStress(t *testing.T) {
	_, splits := concSystem(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	db := buildConcurrentDB(t)
	db.SetMaterialization(MatBg)
	db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: cons})

	// The idle gate flaps so the analyzer races both its gate and the
	// foreground work.
	var tick atomic.Int64
	stop, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{
		Interval:  time.Millisecond,
		BatchRows: 4,
		Idle:      func() bool { return tick.Add(1)%3 != 0 },
	})
	if err != nil {
		t.Fatal(err)
	}

	baseRows := db.Count()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				sql := concQueries[(g+i)%len(concQueries)]
				if _, err := db.Query(sql, cons); err != nil {
					report(fmt.Errorf("query %q: %w", sql, err))
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool := splits.Train.Examples
		for b := 0; b < 3; b++ {
			var ims []*img.Image
			var meta []Metadata
			for r := 0; r < 3; r++ {
				e := pool[(b*3+r)%len(pool)]
				ims = append(ims, e.Image)
				id := int64(baseRows + b*3 + r)
				meta = append(meta, Metadata{ID: id, Location: "ingest", Camera: "cam-2", TS: id * 10})
			}
			if _, err := db.Append(ims, meta); err != nil {
				report(fmt.Errorf("append %d: %w", b, err))
				return
			}
		}
	}()
	wg.Wait()
	stop() // deterministic shutdown: blocks until the goroutine exits
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildConcurrentDB(t)
	pool := splits.Train.Examples
	var ims []*img.Image
	var meta []Metadata
	for b := 0; b < 3; b++ {
		for r := 0; r < 3; r++ {
			e := pool[(b*3+r)%len(pool)]
			ims = append(ims, e.Image)
			id := int64(baseRows + b*3 + r)
			meta = append(meta, Metadata{ID: id, Location: "ingest", Camera: "cam-2", TS: id * 10})
		}
	}
	if _, err := fresh.Append(ims, meta); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(final) != resultKey(want) {
		t.Fatalf("post-stress result diverges from fresh DB:\n got %s\nwant %s", resultKey(final), resultKey(want))
	}
}

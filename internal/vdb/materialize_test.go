package vdb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/planner"
)

// cloakFrames returns the freshly classified frame count for one category
// in a query's Observed accounting (0 when fully served from columns).
func observedFrames(res *Result, category string) int {
	n := 0
	for _, ob := range res.Observed {
		if ob.Category == category {
			n += ob.Frames
		}
	}
	return n
}

// TestMaterializedParityMatrix is the materialization property test: across
// coverage fraction × workers × batch × rank/static ordering, the
// materialized-path labels are bit-identical to full inference, partially
// covered predicates classify exactly the uncovered row window, and the
// fully covered repeat query runs on the bitmap path with zero inference.
func TestMaterializedParityMatrix(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	const sql = "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('cloakb')"

	// One full-inference reference: labels are independent of engine sizing
	// and coverage by construction — that is the property under test.
	ref := buildConcurrentDB(t)
	want, err := ref.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	rows := ref.Count()

	for _, cover := range []int{0, 10, 28, rows} {
		for _, workers := range []int{1, 3} {
			for _, batch := range []int{0, 7} {
				for _, order := range []planner.Order{planner.OrderRank, planner.OrderStatic} {
					name := fmt.Sprintf("cover=%d/workers=%d/batch=%d/static=%v", cover, workers, batch, order == planner.OrderStatic)
					t.Run(name, func(t *testing.T) {
						db := buildConcurrentDB(t)
						db.SetExecOptions(exec.Options{Workers: workers, Batch: batch})
						db.setPlanOptions(planner.Options{Order: order})
						if cover > 0 {
							// Pre-cover the first `cover` rows of cloak's
							// column via a metadata window (ts = 10·row).
							preSQL := fmt.Sprintf(
								"SELECT id FROM images WHERE ts < %d AND contains_object('cloak')", cover*10)
							if _, err := db.Query(preSQL, cons); err != nil {
								t.Fatal(err)
							}
						}
						res, err := db.Query(sql, cons)
						if err != nil {
							t.Fatal(err)
						}
						if resultKey(res) != resultKey(want) {
							t.Fatalf("labels diverge from full inference:\n got %s\nwant %s",
								resultKey(res), resultKey(want))
						}
						// Partially covered predicates classify only the
						// uncovered row window.
						if got := observedFrames(res, "cloak"); got != rows-cover {
							t.Fatalf("cloak classified %d rows, want %d (covered %d of %d)",
								got, rows-cover, cover, rows)
						}
						// The repeat query is fully covered: pure bitmap
						// AND, zero inference, same rows.
						again, err := db.Query(sql, cons)
						if err != nil {
							t.Fatal(err)
						}
						if !again.Bitmap || again.UDFCalls != 0 {
							t.Fatalf("repeat query: bitmap=%v udf=%d, want bitmap path with 0 calls",
								again.Bitmap, again.UDFCalls)
						}
						// The first predicate must be fully resident; the
						// second may only cover the first's survivors
						// (sequential chains never classify filtered rows).
						if again.MatHits < rows || again.MatHits > 2*rows {
							t.Fatalf("repeat query MatHits=%d, want within [%d, %d]",
								again.MatHits, rows, 2*rows)
						}
						if resultKey(again) != resultKey(want) {
							t.Fatalf("bitmap-path labels diverge:\n got %s\nwant %s",
								resultKey(again), resultKey(want))
						}
					})
				}
			}
		}
	}
}

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

// TestMatModeOff: with materialization off, nothing is cached (repeat
// queries pay full inference again) but labels stay identical.
func TestMatModeOff(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	const sql = "SELECT id FROM images WHERE contains_object('cloak')"
	db := buildConcurrentDB(t)
	db.SetMaterialization(MatOff)
	first, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if second.UDFCalls != first.UDFCalls || second.UDFCalls == 0 {
		t.Fatalf("MatOff repeat ran %d classifications, want %d (no caching)", second.UDFCalls, first.UDFCalls)
	}
	if second.Bitmap || second.MatHits != 0 {
		t.Fatalf("MatOff repeat used materialization: bitmap=%v hits=%d", second.Bitmap, second.MatHits)
	}
	if resultKey(first) != resultKey(second) {
		t.Fatal("MatOff runs diverge")
	}
	st := db.MatStats()
	if st.Mode != "off" || st.Columns != 0 {
		t.Fatalf("MatStats under MatOff: %+v", st)
	}
	out, err := db.Explain(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"materialized"} {
		if containsStr(out, forbidden) {
			t.Fatalf("MatOff explain mentions %q:\n%s", forbidden, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMatBudgetEviction: over budget, the least-recently-touched column is
// evicted (and accounted), the hottest survives and keeps serving bitmap
// lookups, and the evicted predicate simply re-classifies.
func TestMatBudgetEviction(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	db := buildConcurrentDB(t)
	if _, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT id FROM images WHERE contains_object('cloakb')", cons); err != nil {
		t.Fatal(err)
	}
	if st := db.MatStats(); st.Columns != 2 {
		t.Fatalf("columns before budget: %d, want 2", st.Columns)
	}
	// Two 40-row columns are 16 bytes each; 20 bytes keeps exactly one —
	// the most recently touched (cloakb).
	db.SetMatBudget(20)
	st := db.MatStats()
	if st.Columns != 1 || st.ColumnsEvicted != 1 || st.EvictedBytes == 0 {
		t.Fatalf("after budget: %+v", st)
	}
	warm, err := db.Query("SELECT id FROM images WHERE contains_object('cloakb')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Bitmap || warm.UDFCalls != 0 {
		t.Fatalf("hottest column did not survive: bitmap=%v udf=%d", warm.Bitmap, warm.UDFCalls)
	}
	cold, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if cold.UDFCalls == 0 {
		t.Fatal("evicted column served labels from nowhere")
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

// TestAnalyzerGuards: starting under MatOff fails, double-start fails,
// stop is idempotent, and a stopped analyzer can be restarted.
func TestAnalyzerGuards(t *testing.T) {
	db := buildConcurrentDB(t)
	db.SetMaterialization(MatOff)
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

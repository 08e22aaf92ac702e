package vdb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/img"
)

// TestPlanErrorsAreTyped: every way a statement can be wrong surfaces from
// both Query and Explain as a *PlanError, before any row is read — a literal
// of the wrong type included, on an empty table as on a full one.
func TestPlanErrorsAreTyped(t *testing.T) {
	full := buildSysDB(t)
	empty := buildSysDB(t)
	if err := empty.LoadCorpus(nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql  string
		cons core.Constraints
	}{
		{"SELEKT * FROM images", diffCons},
		{"SELECT * FROM videos", diffCons},
		{"SELECT bogus FROM images", diffCons},
		{"SELECT * FROM images WHERE bogus = 1", diffCons},
		{"SELECT * FROM images WHERE contains_object('zebra')", diffCons},
		{"SELECT * FROM images WHERE contains_object('cloak')", core.Constraints{MinThroughput: 1e18}},
		{"SELECT * FROM images WHERE id = 'abc'", diffCons},
		{"SELECT COUNT(*) FROM images WHERE ts >= '5'", diffCons},
		{"SELECT * FROM images WHERE location = 7", diffCons},
		{"SELECT id FROM images WHERE camera != 3 AND contains_object('cloak')", diffCons},
	} {
		for name, db := range map[string]*DB{"full": full, "empty": empty} {
			var pe *PlanError
			if _, err := db.Query(tc.sql, tc.cons); !errors.As(err, &pe) {
				t.Errorf("%s table: Query(%q) = %v, want a *PlanError", name, tc.sql, err)
			}
			if _, err := db.Explain(tc.sql, tc.cons); !errors.As(err, &pe) {
				t.Errorf("%s table: Explain(%q) = %v, want a *PlanError", name, tc.sql, err)
			}
		}
	}
	// Execution-side failures are not the statement's fault.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var pe *PlanError
	if _, err := full.QueryContext(ctx, "SELECT COUNT(*) FROM images", diffCons); err == nil || errors.As(err, &pe) {
		t.Errorf("cancelled query returned %v, want a plain context error", err)
	}
}

// parkedCorpus is an in-memory corpus whose appends block until released, so
// a test can hold an Append inside its critical section — where a durable
// corpus would be waiting for an fsync.
type parkedCorpus struct {
	*memoryCorpus
	entered chan struct{}
	release chan struct{}
}

func (c *parkedCorpus) appendRecords(base int, recs []img.Record, journaled bool) error {
	close(c.entered)
	<-c.release
	return c.memoryCorpus.appendRecords(base, recs, journaled)
}

// TestReadersDoNotWaitForAppend parks an Append inside its corpus write —
// holding the DB lock — and requires a covered Query and an Explain to finish
// meanwhile, seeing exactly the rows published before it.
func TestReadersDoNotWaitForAppend(t *testing.T) {
	db := buildSysDB(t)
	db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: diffCons})
	const sql = "SELECT id FROM images WHERE ts >= 50 AND contains_object('cloak') AND NOT contains_object('coho')"
	want, err := db.Query(sql, diffCons)
	if err != nil {
		t.Fatal(err)
	}
	rows := db.Count()

	parked := &parkedCorpus{entered: make(chan struct{}), release: make(chan struct{})}
	db.mu.Lock()
	parked.memoryCorpus = db.corpus.(*memoryCorpus)
	db.corpus = parked
	db.mu.Unlock()
	appended := make(chan error, 1)
	go func() {
		_, err := db.Append(sysImages[:3], []Metadata{{ID: 100, TS: 1000}, {ID: 101, TS: 1010}, {ID: 102, TS: 1020}})
		appended <- err
	}()
	<-parked.entered
	if db.mu.TryLock() {
		db.mu.Unlock()
		t.Fatal("the parked Append does not hold the DB lock; the test proves nothing")
	}

	type answer struct {
		res  *Result
		plan string
		err  error
	}
	read := make(chan answer, 1)
	go func() {
		var a answer
		if a.res, a.err = db.Query(sql, diffCons); a.err == nil {
			a.plan, a.err = db.Explain(sql, diffCons)
		}
		read <- a
	}()
	select {
	case a := <-read:
		if a.err != nil {
			t.Fatal(a.err)
		}
		if !a.res.Bitmap || resultKey(a.res) != resultKey(want) {
			t.Fatalf("read beside a parked append: bitmap=%v %s, want the pre-append answer %s", a.res.Bitmap, resultKey(a.res), resultKey(want))
		}
		if scan := fmt.Sprintf("Scan images (%d rows)", rows); !strings.Contains(a.plan, scan) {
			t.Fatalf("explain beside a parked append lacks %q:\n%s", scan, a.plan)
		}
		if got := db.Count(); got != rows {
			t.Fatalf("Count() = %d beside a parked append, want %d", got, rows)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a covered query waited for the writer")
	}

	close(parked.release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	after, err := db.Query("SELECT COUNT(*) FROM images", diffCons)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != rows+3 {
		t.Fatalf("after the append: %d rows, want %d", after.Count, rows+3)
	}
}

// TestReadersSeePublishedPrefixes runs readers against concurrent Append,
// the analyzer and materialization-mode flips, and requires every answer to
// be the serial answer over some published prefix of the table: rows are only
// ever appended and labels are deterministic per row, so the answer over the
// first p rows is the final answer cut at p. Each reader runs its statement
// twice in a row, so readers also share plans their state kept.
func TestReadersSeePublishedPrefixes(t *testing.T) {
	sysFixture(t)
	cons := diffCons
	const (
		batches   = 5
		batchRows = 3
	)
	base := len(sysImages)
	final := base + batches*batchRows
	images := make([]*img.Image, final)
	meta := make([]Metadata, final)
	for i := range meta {
		images[i] = sysImages[(i*7)%base]
		meta[i] = Metadata{ID: int64(i), Location: "uptown", Camera: "cam-1", TS: int64(i * 10)}
	}
	queries := []string{
		"SELECT id FROM images WHERE contains_object('cloak')",
		"SELECT id FROM images WHERE contains_object('coho') AND NOT contains_object('cloak')",
		"SELECT id FROM images WHERE ts >= 100 AND contains_object('cloak2') AND contains_object('coho')",
		"SELECT id FROM images WHERE id != 7",
	}
	// The serial answers over the final table.
	serial := buildSysDB(t)
	if err := serial.LoadCorpus(images, meta); err != nil {
		t.Fatal(err)
	}
	finalIDs := make([]map[int64]bool, len(queries))
	for qi, sql := range queries {
		res, err := serial.Query(sql, cons)
		if err != nil {
			t.Fatal(err)
		}
		finalIDs[qi] = rowSet(t, res)
	}
	// matchesPrefix reports whether ids is the final answer cut at some
	// batch boundary.
	matchesPrefix := func(qi int, res *Result) bool {
		got := rowSet(t, res)
		for p := base; p <= final; p += batchRows {
			want := 0
			for id := range finalIDs[qi] {
				if id < int64(p) {
					want++
					if !got[id] {
						want = -1
						break
					}
				}
			}
			if want == len(got) {
				return true
			}
		}
		return false
	}

	db := buildSysDB(t)
	if err := db.LoadCorpus(images[:base:base], meta[:base:base]); err != nil {
		t.Fatal(err)
	}
	db.SetMaterialization(MatBg)
	db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: cons})
	stopAnalyzer, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{Interval: time.Millisecond, BatchRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAnalyzer()

	// The appender paces the run; the mode flipper and the readers go on
	// until it has published its last batch.
	appended := make(chan struct{})
	var others sync.WaitGroup
	running := func() bool {
		select {
		case <-appended:
			return false
		default:
			return true
		}
	}
	go func() {
		defer close(appended)
		for p := base; p < final; p += batchRows {
			if _, err := db.Append(images[p:p+batchRows], meta[p:p+batchRows]); err != nil {
				t.Errorf("append at %d: %v", p, err)
				return
			}
			time.Sleep(2 * time.Millisecond) // let reads land between batches
		}
	}()
	others.Add(1)
	go func() { // materialization off drops the columns on the next append
		defer others.Done()
		for i := 0; running(); i++ {
			db.SetMaterialization([]MatMode{MatOff, MatBg, MatOn}[i%3])
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 3; g++ {
		others.Add(1)
		go func(g int) {
			defer others.Done()
			for i := 0; running() || i < len(queries); i++ {
				qi := (g + i) % len(queries)
				// Twice back to back: the second run reuses the first one's
				// plan whenever nothing published in between.
				for range 2 {
					res, err := db.Query(queries[qi], cons)
					if err != nil {
						t.Errorf("%s: %v", queries[qi], err)
						return
					}
					if !matchesPrefix(qi, res) {
						t.Errorf("%s: answer %s is the serial answer over no published prefix", queries[qi], resultKey(res))
						return
					}
				}
				if _, err := db.Explain(queries[qi], cons); err != nil {
					t.Errorf("explain %s: %v", queries[qi], err)
					return
				}
			}
		}(g)
	}
	<-appended
	others.Wait()

	db.SetMaterialization(MatOn)
	for qi, sql := range queries {
		res, err := db.Query(sql, cons)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowSet(t, res); len(got) != len(finalIDs[qi]) || !matchesPrefix(qi, res) {
			t.Fatalf("%s after the run: %d rows, want the serial %d", sql, len(got), len(finalIDs[qi]))
		}
	}
}

// residentDB builds a DB over n rows (the fixture images, cycled; id = ts =
// row index) with the named predicates' columns fully resident, published
// from the fixture's per-image labels instead of classified.
func residentDB(t testing.TB, fx *diffFixture, n int, cats ...string) *DB {
	t.Helper()
	meta := make([]Metadata, n)
	for i := range meta {
		meta[i] = Metadata{ID: int64(i), Location: "uptown", Camera: "cam-1", TS: int64(i)}
	}
	db := buildSysDB(t)
	if err := db.LoadCorpus(cycledImages(n), meta); err != nil {
		t.Fatal(err)
	}
	for _, cat := range cats {
		k := fx.keys[cat]
		publishLabels(db, k, n, func(i int) (bool, bool) { return fx.truth[k][i%len(sysImages)], true })
	}
	return db
}

// TestCoveredCountAllocations: a bitmap-served COUNT(*) repeated on one
// read state allocates at most a handful of objects, the same number whatever
// the table size, and no bytes that grow with the table: it runs the plan the
// state kept and borrows its live set from the state's pool.
func TestCoveredCountAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	fx := newDiffFixture(t)
	measure := func(n int, sql string) (objects float64, bytes uint64) {
		db := residentDB(t, fx, n, "cloak", "coho")
		run := func() {
			res, err := db.Query(sql, diffCons)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Bitmap || res.UDFCalls != 0 {
				t.Fatalf("%s over %d rows: bitmap=%v udf=%d, want a covered statement", sql, n, res.Bitmap, res.UDFCalls)
			}
		}
		objects = testing.AllocsPerRun(50, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return objects, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM images WHERE contains_object('cloak')",
		"SELECT COUNT(*) FROM images WHERE contains_object('cloak') AND NOT contains_object('coho')",
		"SELECT COUNT(*) FROM images WHERE ts >= 100 AND ts < 900 AND contains_object('cloak')",
	} {
		smallObjs, smallBytes := measure(1000, sql)
		largeObjs, largeBytes := measure(64000, sql)
		if smallObjs != largeObjs || largeObjs > 8 {
			t.Errorf("%s: %.0f allocations at 1 000 rows, %.0f at 64 000; want the same constant, at most 8", sql, smallObjs, largeObjs)
		}
		if grown := int64(largeBytes) - int64(smallBytes); grown > 256 {
			t.Errorf("%s: %d bytes per statement at 1 000 rows, %d at 64 000: %d more with the table", sql, smallBytes, largeBytes, grown)
		}
		t.Logf("%s: %.0f objects; %d B at 1 000 rows, %d B at 64 000", sql, largeObjs, smallBytes, largeBytes)
	}
}

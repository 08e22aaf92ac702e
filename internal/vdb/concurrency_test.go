package vdb

import (
	"fmt"
	"sync"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
)

// The concurrency tests share one trained tiny system (training dominates
// fixture cost); every test builds its own fresh DB from it.
var concFixture struct {
	once   sync.Once
	err    error
	sys    *core.System
	splits synth.Splits
}

func concSystem(t *testing.T) (*core.System, synth.Splits) {
	t.Helper()
	concFixture.once.Do(func() {
		cat, err := synth.CategoryByName("cloak")
		if err != nil {
			concFixture.err = err
			return
		}
		concFixture.splits, err = synth.GenerateBinary(cat, synth.Options{
			BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
		})
		if err != nil {
			concFixture.err = err
			return
		}
		concFixture.sys, concFixture.err = core.Initialize("cloak", concFixture.splits, core.TinyConfig())
	})
	if concFixture.err != nil {
		t.Fatal(concFixture.err)
	}
	return concFixture.sys, concFixture.splits
}

// buildConcurrentDB assembles a DB over the shared system's eval split with
// the system installed under two categories, so distinct queries run
// identical cascades into separate columns.
func buildConcurrentDB(t *testing.T) *DB {
	t.Helper()
	sys, splits := concSystem(t)
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := New(cm)
	var images []*img.Image
	var meta []Metadata
	locations := []string{"uptown", "downtown"}
	for i, e := range splits.Eval.Examples {
		images = append(images, e.Image)
		meta = append(meta, Metadata{ID: int64(i), Location: locations[i%2], Camera: "cam-1", TS: int64(i * 10)})
	}
	if err := db.LoadCorpus(images, meta); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"cloak", "cloakb"} {
		if err := db.InstallPredicate(cat, sys, 2); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func resultKey(res *Result) string {
	s := fmt.Sprintf("cols=%v count=%d rows:", res.Columns, res.Count)
	for _, row := range res.Rows {
		for _, v := range row {
			s += v.String() + ","
		}
		s += ";"
	}
	return s
}

var concQueries = []string{
	"SELECT id FROM images WHERE contains_object('cloak')",
	"SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak')",
	"SELECT COUNT(*) FROM images WHERE contains_object('cloakb')",
	"SELECT id FROM images WHERE contains_object('cloak') AND contains_object('cloakb')",
	"SELECT id FROM images WHERE NOT contains_object('cloak')",
	"SELECT id, ts FROM images WHERE ts >= 100",
}

// TestConcurrentQueriesBitIdentical: the same query set produces row-for-row
// identical results whether it runs serially on a fresh DB or fully
// concurrently on another — the bit-parity
// guarantee `tahoma serve` relies on.
func TestConcurrentQueriesBitIdentical(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	serialDB := buildConcurrentDB(t)
	want := make(map[string]string, len(concQueries))
	for _, sql := range concQueries {
		res, err := serialDB.Query(sql, cons)
		if err != nil {
			t.Fatalf("serial %q: %v", sql, err)
		}
		want[sql] = resultKey(res)
	}

	concDB := buildConcurrentDB(t)
	const repeats = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(concQueries)*repeats)
	for r := 0; r < repeats; r++ {
		for _, sql := range concQueries {
			wg.Add(1)
			go func(sql string) {
				defer wg.Done()
				res, err := concDB.Query(sql, cons)
				if err != nil {
					errs <- fmt.Errorf("concurrent %q: %w", sql, err)
					return
				}
				if got := resultKey(res); got != want[sql] {
					errs <- fmt.Errorf("concurrent %q diverged:\n got %s\nwant %s", sql, got, want[sql])
				}
			}(sql)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentQueryIngestStress interleaves Query, Explain and Append
// (with trigger-time classification enabled) from many goroutines. Run under
// -race this fails on an unsynchronized DB; with the snapshot/merge
// discipline it must finish without errors and end in a coherent state:
// every row present and the final content answer identical to a fresh DB
// over the same final corpus.
func TestConcurrentQueryIngestStress(t *testing.T) {
	_, splits := concSystem(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	db := buildConcurrentDB(t)
	db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: core.Constraints{MaxAccuracyLoss: 0.05}})

	baseRows := db.Count()
	const (
		appendBatches = 4
		batchRows     = 3
		queryIters    = 6
	)
	// Append pool: train-split images (same geometry as the corpus).
	pool := splits.Train.Examples

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	// Queriers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queryIters; i++ {
				sql := concQueries[(g+i)%len(concQueries)]
				if _, err := db.Query(sql, cons); err != nil {
					report(fmt.Errorf("query %q: %w", sql, err))
					return
				}
			}
		}(g)
	}
	// Explainer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < queryIters; i++ {
			if _, err := db.Explain(concQueries[i%len(concQueries)], cons); err != nil {
				report(fmt.Errorf("explain: %w", err))
				return
			}
		}
	}()
	// Appender: trigger classification runs concurrently with the queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < appendBatches; b++ {
			var ims []*img.Image
			var meta []Metadata
			for r := 0; r < batchRows; r++ {
				e := pool[(b*batchRows+r)%len(pool)]
				ims = append(ims, e.Image)
				id := int64(baseRows + b*batchRows + r)
				meta = append(meta, Metadata{ID: id, Location: "ingest", Camera: "cam-2", TS: id * 10})
			}
			if _, err := db.Append(ims, meta); err != nil {
				report(fmt.Errorf("append batch %d: %w", b, err))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	wantRows := baseRows + appendBatches*batchRows
	if got := db.Count(); got != wantRows {
		t.Fatalf("after stress: %d rows, want %d", got, wantRows)
	}
	final, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh DB over the same final corpus must agree row for row.
	fresh := buildConcurrentDB(t)
	var ims []*img.Image
	var meta []Metadata
	for b := 0; b < appendBatches; b++ {
		for r := 0; r < batchRows; r++ {
			e := pool[(b*batchRows+r)%len(pool)]
			ims = append(ims, e.Image)
			id := int64(baseRows + b*batchRows + r)
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

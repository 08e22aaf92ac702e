package vdb

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/xform"
)

// servingDB is the ONGOING shape in process: a store-backed corpus holding
// every representation the cloak system's cascades read, served from the
// store, with materialization off so every statement classifies.
func servingDB(t *testing.T) *DB {
	t.Helper()
	fusedFixture(t)
	store, err := repstore.Create(t.TempDir(), 16, 16, xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := store.IngestAll(fusedImages); err != nil {
		t.Fatal(err)
	}
	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Ongoing, params)
	if err != nil {
		t.Fatal(err)
	}
	db := New(cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, fusedMeta); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallPredicate("cloak", cloakSys, 2); err != nil {
		t.Fatal(err)
	}
	db.ServeReps(true)
	db.SetMaterialization(MatOff)
	db.SetExecOptions(exec.Options{Workers: 2, Batch: 8})
	return db
}

const servingSQL = "SELECT id FROM images WHERE contains_object('cloak')"

// TestConcurrentStatementsShareEngine: identical store-backed statements on
// one predicate plan onto the one runtime — and so the one engine — the
// predicate installed for their cascade, and running many of them at once
// on it answers bit-identically to running them one at a time: rows, UDF
// calls and served reps. Run it under -race: the engine's warm workers are
// shared by every statement.
func TestConcurrentStatementsShareEngine(t *testing.T) {
	db := servingDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	a, err := db.prepare(servingSQL, cons)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.prepare(servingSQL, cons)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := a.content[0].rt.Engine()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.content[0].rt.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if a.content[0].rt != b.content[0].rt || ea != eb {
		t.Fatal("two plans of one statement hold different runtimes or engines")
	}
	key := func(res *Result) string {
		return fmt.Sprintf("%s udf=%d hits=%d reps=%d", resultKey(res), res.UDFCalls, res.RepHits, res.RepsMaterialized)
	}
	first, err := db.Query(servingSQL, cons)
	if err != nil {
		t.Fatal(err)
	}
	if first.RepHits == 0 || first.RepsMaterialized != 0 {
		t.Fatalf("%d reps served, %d transformed: want every slot served from the store", first.RepHits, first.RepsMaterialized)
	}
	want := key(first)
	for i := 0; i < 2; i++ {
		res, err := db.Query(servingSQL, cons)
		if err != nil {
			t.Fatal(err)
		}
		if got := key(res); got != want {
			t.Fatalf("serial repeat %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}
	const statements = 8
	var wg sync.WaitGroup
	errs := make(chan error, statements)
	for g := 0; g < statements; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.Query(servingSQL, cons)
			if err != nil {
				errs <- err
				return
			}
			if got := key(res); got != want {
				errs <- fmt.Errorf("concurrent statement diverged:\n got %s\nwant %s", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWarmStatementGarbageBounded: a repeated single-predicate statement
// runs on its cascade's installed engine, whose warm workers keep their
// model clones and pooled representation buffers, so what one statement
// allocates is its plan, its result and the engine run's bookkeeping — not a
// fresh worker set. On this fixture a warm statement allocates about 6 KiB;
// planning an engine per statement allocated about 300 KiB, its new workers'
// model clones and buffers. The bound sits between the two.
func TestWarmStatementGarbageBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	db := servingDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	query := func() {
		if _, err := db.Query(servingSQL, cons); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		query()
	}
	const rounds = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		query()
	}
	runtime.ReadMemStats(&m1)
	perStatement := (m1.TotalAlloc - m0.TotalAlloc) / rounds
	t.Logf("a warm statement allocates %d bytes", perStatement)
	const limit = 64 << 10
	if perStatement > limit {
		t.Fatalf("a warm statement allocates %d bytes, limit %d", perStatement, limit)
	}
}

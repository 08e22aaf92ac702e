package vdb

import (
	"maps"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/xform"
)

// TestMaterializingScanReadsThrough: a statement that publishes labels over
// more rows than a quarter of the record cache holds reads through it. A
// window warmed into the cache first is still resident afterwards — the
// scan read it as hits, evicted nothing and admitted nothing — and both
// statements answer what an in-memory corpus answers. Under MatOff, where
// nothing is published and every statement rereads pixels, the same scan
// still admits. Sources and served representations alike.
func TestMaterializingScanReadsThrough(t *testing.T) {
	sysFixture(t)
	grid := xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray})
	store, err := repstore.Create(t.TempDir(), 16, 16, grid)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.IngestAll(sysImages); err != nil {
		t.Fatal(err)
	}
	const windowRows = 4
	// The largest run the cache admits is windowRows rows of sources; the
	// corpus is ten times that.
	budget := windowRows * scanShare * int64(img.EncodedSize(16, 16, img.RGB))
	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Archive, params)
	if err != nil {
		t.Fatal(err)
	}
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	const (
		window = "SELECT id FROM images WHERE ts < 40 AND contains_object('cloak')" // rows 0..3
		scan   = "SELECT id FROM images WHERE contains_object('coho')"
	)
	install := func(db *DB) {
		for _, in := range []struct {
			cat string
			sys *core.System
		}{{"cloak", cloakSys}, {"coho", cohoSys}} {
			if err := db.InstallPredicate(in.cat, in.sys, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	mem := New(cm)
	if err := mem.LoadCorpus(sysImages, sysMeta); err != nil {
		t.Fatal(err)
	}
	install(mem)
	answer := func(db *DB, sql string) map[int64]bool {
		t.Helper()
		res, err := db.Query(sql, cons)
		if err != nil {
			t.Fatal(err)
		}
		return rowSet(t, res)
	}
	wantWindow, wantScan := answer(mem, window), answer(mem, scan)
	if len(wantScan) == 0 || len(wantScan) == len(sysImages) {
		t.Fatalf("fixture: the scan keeps %d of %d rows", len(wantScan), len(sysImages))
	}

	for _, serve := range []bool{false, true} {
		build := func(mode MatMode) *DB {
			db := New(cm)
			db.SetMaterialization(mode)
			if err := db.LoadCorpusFromStore(store, budget, sysMeta); err != nil {
				t.Fatal(err)
			}
			db.ServeReps(serve)
			install(db)
			return db
		}
		check := func(db *DB, sql string, want map[int64]bool) {
			t.Helper()
			if got := answer(db, sql); !maps.Equal(got, want) {
				t.Fatalf("serve reps %v: %q answered %v, the in-memory corpus %v", serve, sql, got, want)
			}
		}

		db := build(MatOn)
		check(db, window, wantWindow)
		warm, _ := db.RepCacheStats()
		if warm.ResidentBytes == 0 || warm.ReadThrough != 0 {
			t.Fatalf("serve reps %v: a %d-row window left %+v, want it admitted", serve, windowRows, warm)
		}
		check(db, scan, wantScan)
		after, _ := db.RepCacheStats()
		if after.ResidentBytes != warm.ResidentBytes || after.EvictedBytes != warm.EvictedBytes || after.ReadThrough == 0 {
			t.Fatalf("serve reps %v: the materializing scan moved the cache %+v → %+v, want it read through", serve, warm, after)
		}
		if after.Hits == warm.Hits {
			t.Fatalf("serve reps %v: the scan over the warm window hit nothing: %+v → %+v", serve, warm, after)
		}
		// Reading the window's pixels again is all hits.
		db.SetMaterialization(MatOff)
		check(db, window, wantWindow)
		if again, _ := db.RepCacheStats(); again.Misses != after.Misses || again.Hits == after.Hits {
			t.Fatalf("serve reps %v: the window after the scan: %+v → %+v, want hits only", serve, after, again)
		}

		off := build(MatOff)
		check(off, scan, wantScan)
		if st, _ := off.RepCacheStats(); st.ReadThrough != 0 || st.ResidentBytes == 0 {
			t.Fatalf("serve reps %v: a MatOff scan left %+v, want it admitted", serve, st)
		}
	}
}

// TestScanRuleOnBenchmarkShapes: under serve's default 64 MiB record cache
// and 32×32 sources, the rule reads through exactly the dashboard's two
// warm-up passes — every row, then the first predicate's positives — and no
// run of the ARCHIVE and ONGOING windows or of the camera's first trigger,
// which admit as before.
func TestScanRuleOnBenchmarkShapes(t *testing.T) {
	sc := &storeCorpus{budget: 64 << 20, record: int64(img.EncodedSize(32, 32, img.RGB))}
	for _, run := range []struct {
		what    string
		rows    int
		through bool
	}{
		{"archive/ongoing window", 2000, false},
		{"camera trigger backfill", 2000 + 16, false},
		{"analyzer batch", 64, false},
		{"dashboard first pass", 32000, true},
		{"dashboard positives pass", 16000, true},
	} {
		if got := sc.scan(run.rows); got != run.through {
			t.Errorf("%s over %d rows: reads through %v, want %v", run.what, run.rows, got, run.through)
		}
	}
}

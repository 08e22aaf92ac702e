package vdb

import (
	"context"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/xform"
)

// TestAppendWithoutTrigger: an append without a trigger invalidates the
// materialized columns, and an in-memory corpus holds every row, loaded or
// appended, as its stored record.
func TestAppendWithoutTrigger(t *testing.T) {
	db, _ := buildTestDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}

	// Materialize the predicate column.
	if _, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 0 {
		t.Fatal("expected materialized column")
	}

	// Append without triggers: the cache must be invalidated, counts grow.
	newRows := []*img.Image{img.New(16, 16, img.RGB), img.New(16, 16, img.RGB)}
	meta := []Metadata{{ID: 100, Location: "annex", TS: 1000}, {ID: 101, Location: "annex", TS: 1001}}
	calls, err := db.Append(newRows, meta)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("no-trigger append ran %d classifications", calls)
	}
	if db.Count() != 42 {
		t.Fatalf("count after append: %d", db.Count())
	}
	// Loaded and appended rows alike are held as their stored records: a
	// 16×16 RGB row costs its 778-byte TIMG record, not the 3 072 bytes of
	// its float32 expansion.
	mem := db.corpus.(*memoryCorpus)
	stored, expanded := img.EncodedSize(16, 16, img.RGB), img.New(16, 16, img.RGB).Bytes()
	for i, rec := range mem.recs {
		if rec.StoredBytes() != stored || 4*len(rec.Pix) != expanded {
			t.Fatalf("in-memory row %d holds %d bytes (%d samples), want its %d-byte record of a %d-byte frame", i, rec.StoredBytes(), len(rec.Pix), stored, expanded)
		}
	}
	res, err = db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 42 {
		t.Fatalf("expected full re-classification after invalidation, got %d calls", res.UDFCalls)
	}
}

func TestAppendWithTrigger(t *testing.T) {
	db, _ := buildTestDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.0}
	db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: cons})

	// First append: the trigger materializes the whole corpus (40 old rows
	// + 2 new).
	newRows := []*img.Image{img.New(16, 16, img.RGB), img.New(16, 16, img.RGB)}
	meta := []Metadata{{ID: 100, Location: "annex", TS: 1000}, {ID: 101, Location: "annex", TS: 1001}}
	calls, err := db.Append(newRows, meta)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 42 {
		t.Fatalf("first trigger append classified %d rows, want 42", calls)
	}

	// The query with the trigger's constraints is served from the column.
	res, err := db.Query("SELECT COUNT(*) FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 0 {
		t.Fatalf("query after trigger append ran %d classifications", res.UDFCalls)
	}

	// Second append classifies only the new rows.
	calls, err = db.Append([]*img.Image{img.New(16, 16, img.RGB)}, []Metadata{{ID: 102, TS: 1002}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("incremental trigger append classified %d rows, want 1", calls)
	}
	res, err = db.Query("SELECT COUNT(*) FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 0 {
		t.Fatal("query after incremental append should stay materialized")
	}
}

func TestAppendValidation(t *testing.T) {
	db, _ := buildTestDB(t)
	if _, err := db.Append([]*img.Image{img.New(16, 16, img.RGB)}, nil); err == nil {
		t.Fatal("mismatched append must error")
	}
}

// TestTriggerLeavesRecordCacheAlone: the ingest trigger classifies a batch
// from the records the append was handed, so ingesting a row neither reads it
// back nor makes it resident — the record cache's footprint and hit/miss
// counters do not move. The row enters the cache when a query first reads it
// (a miss, then hits). And the labels are the ones a trigger reading the same
// rows back through the cache — what it did before — would have published,
// with representations materialized in the store and without.
func TestTriggerLeavesRecordCacheAlone(t *testing.T) {
	env := durSetup(t)
	for _, grid := range [][]xform.Transform{env.grid, nil} {
		store, err := repstore.Create(t.TempDir(), 16, 16, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if err := store.IngestAll(env.images[:20]); err != nil {
			t.Fatal(err)
		}
		db := env.newDB(t, store, env.metas[:20], true)
		// The first triggered append backfills the column over the old rows,
		// which it has to read; the property is about the batch's own rows.
		if _, err := db.Append(env.images[20:24], env.metas[20:24]); err != nil {
			t.Fatal(err)
		}
		before, ok := db.RepCacheStats()
		if !ok {
			t.Fatal("store-backed corpus has no record cache")
		}
		udf, err := db.Append(env.images[24:32], env.metas[24:32])
		if err != nil {
			t.Fatal(err)
		}
		if udf != 8 {
			t.Fatalf("trigger classified %d rows, want the 8 appended", udf)
		}
		if after, _ := db.RepCacheStats(); after != before {
			t.Fatalf("%d transforms: a triggered append moved the record cache: %+v → %+v", len(grid), before, after)
		}

		// The labels a read-back through the cache produces, for the same rows.
		st := db.state.Load()
		pred := st.predicates["cloak"]
		point, err := core.Select(pred.Frontier, chaosCons)
		if err != nil {
			t.Fatal(err)
		}
		spec := pred.Results[point.Index].Spec
		rows := []int{24, 25, 26, 27, 28, 29, 30, 31}
		viaCache, _, err := st.classify(context.Background(), st.corpus, pred, point.Index, rows, st.execOpts)
		if err != nil {
			t.Fatal(err)
		}
		col := st.cols.Get(matKey(pred, spec))
		for _, r := range rows {
			if !col.Valid(r) || col.Label(r) != viaCache.col.Label(r) {
				t.Fatalf("%d transforms: row %d's trigger label differs from a classification through the cache", len(grid), r)
			}
		}
		// That read-back is a first read: one miss per row, then hits.
		mid, _ := db.RepCacheStats()
		if mid.Misses-before.Misses != 8 || mid.Hits != before.Hits {
			t.Fatalf("first read of 8 fresh rows: %d misses, %d hits; want 8 and 0", mid.Misses-before.Misses, mid.Hits-before.Hits)
		}
		db.SetMaterialization(MatOff) // make the query read pixels, not labels
		if _, err := db.Query("SELECT id FROM images WHERE ts >= 24 AND contains_object('cloak')", chaosCons); err != nil {
			t.Fatal(err)
		}
		if end, _ := db.RepCacheStats(); end.Hits-mid.Hits != 8 || end.Misses != mid.Misses {
			t.Fatalf("query over 8 resident rows: %d hits, %d misses; want 8 and 0", end.Hits-mid.Hits, end.Misses-mid.Misses)
		}
	}
}

package vdb

import (
	"maps"
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
)

// TestStoreBackedCorpus runs the full query path against a corpus that
// lives in a representation store on disk, with an LRU cache in front.
func TestStoreBackedCorpus(t *testing.T) {
	cat, err := synth.CategoryByName("cloak")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Initialize("cloak", splits, core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}

	store, err := repstore.Create(t.TempDir(), 16, 16,
		[]xform.Transform{{Size: 8, Color: img.Gray}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var meta []Metadata
	var truthPos int
	images := make([]*img.Image, 0, splits.Eval.Len())
	for i, e := range splits.Eval.Examples {
		images = append(images, e.Image)
		meta = append(meta, Metadata{ID: int64(i), Location: "disk", TS: int64(i)})
		if e.Label {
			truthPos++
		}
	}
	if err := store.IngestAll(images); err != nil {
		t.Fatal(err)
	}

	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Archive, params)
	if err != nil {
		t.Fatal(err)
	}
	db := New(cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, meta); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallPredicate("cloak", sys, 2); err != nil {
		t.Fatal(err)
	}

	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	res, err := db.Query("SELECT COUNT(*) FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 40 {
		t.Fatalf("expected 40 classifier calls, got %d", res.UDFCalls)
	}
	// Result should be in the neighbourhood of the true positive count
	// (the store round-trip quantizes pixels, so allow a wide band).
	count := int(res.Rows[0][0].Int)
	if count < truthPos/2 || count > truthPos*2 {
		t.Fatalf("count %d wildly off from %d true positives", count, truthPos)
	}

	// An in-memory run over the same (quantized) images must agree exactly
	// with the store-backed run.
	fromStore := storedImages(t, store)
	db2 := New(cm)
	if err := db2.LoadCorpus(fromStore, meta); err != nil {
		t.Fatal(err)
	}
	if err := db2.InstallPredicate("cloak", sys, 2); err != nil {
		t.Fatal(err)
	}
	res2, err := db2.Query("SELECT COUNT(*) FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows[0][0].Int != res.Rows[0][0].Int {
		t.Fatalf("store-backed count %d != in-memory count %d", res.Rows[0][0].Int, res2.Rows[0][0].Int)
	}

	// The store-backed run took the byte-domain path: what its cache holds
	// is the 40 source records as stored (10 + 3·16·16 bytes each), not
	// their float32 expansions.
	st, ok := db.RepCacheStats()
	if !ok || st.Misses != 40 || st.ResidentBytes != 40*(10+3*16*16) {
		t.Fatalf("store cache after one scan: ok=%v, %+v; want 40 misses and 40 stored records resident", ok, st)
	}

	// Appending through the store-backed corpus works and invalidates.
	if _, err := db.Append([]*img.Image{img.New(16, 16, img.RGB)},
		[]Metadata{{ID: 100, TS: 100}}); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 41 {
		t.Fatalf("count after append %d", db.Count())
	}
}

// storedImages decodes every source record of store, in row order.
func storedImages(t *testing.T, store *repstore.Store) []*img.Image {
	t.Helper()
	ims := make([]*img.Image, store.Count())
	for i := range ims {
		var buf []byte
		rec, err := store.SourceRecord(i, &buf)
		if err != nil {
			t.Fatal(err)
		}
		ims[i] = rec.Image()
	}
	return ims
}

// TestStoreScanUnderSmallCache: the record cache is the only way a
// store-backed corpus is read, so a cache far smaller than the corpus must
// cost hits, never answers. A scan through a cache holding a tenth of the
// corpus's records, and through one of a single byte, answers bit-identically
// to one through 64 MiB, misses, and never holds more than its budget plus
// the one record it just read.
func TestStoreScanUnderSmallCache(t *testing.T) {
	sysFixture(t)
	store, err := repstore.Create(t.TempDir(), 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.IngestAll(sysImages); err != nil {
		t.Fatal(err)
	}
	record := int64(img.EncodedSize(16, 16, img.RGB))
	corpusBytes := int64(len(sysImages)) * record
	cm, err := scenario.NewAnalytic(scenario.Archive, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT id FROM images WHERE contains_object('cloak') AND NOT contains_object('coho')"
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	scan := func(cacheBytes int64) (*Result, repstore.CacheStats) {
		t.Helper()
		db := New(cm)
		db.SetMaterialization(MatOff) // every query reads pixels
		db.SetExecOptions(exec.Options{Workers: 2, Batch: 7})
		if err := db.LoadCorpusFromStore(store, cacheBytes, sysMeta); err != nil {
			t.Fatal(err)
		}
		for _, in := range []struct {
			cat string
			sys *core.System
		}{{"cloak", cloakSys}, {"coho", cohoSys}} {
			if err := db.InstallPredicate(in.cat, in.sys, 2); err != nil {
				t.Fatal(err)
			}
		}
		var res *Result
		for range 2 { // the second scan finds whatever the first left resident
			if res, err = db.Query(sql, cons); err != nil {
				t.Fatalf("cache of %d bytes: %v", cacheBytes, err)
			}
		}
		st, _ := db.RepCacheStats()
		return res, st
	}
	want, _ := scan(64 << 20)
	for _, budget := range []int64{corpusBytes / 10, 1} {
		got, st := scan(budget)
		if got.Count != want.Count || !maps.Equal(rowSet(t, got), rowSet(t, want)) {
			t.Fatalf("cache of %d bytes answered %d rows, 64 MiB answered %d", budget, got.Count, want.Count)
		}
		if st.Misses == 0 {
			t.Fatalf("cache of %d bytes over a %d-byte corpus never missed: %+v", budget, corpusBytes, st)
		}
		if st.ResidentBytes > budget+record {
			t.Fatalf("cache of %d bytes holds %d, more than its budget plus one %d-byte record", budget, st.ResidentBytes, record)
		}
	}
}

func TestLoadCorpusFromStoreValidation(t *testing.T) {
	store, err := repstore.Create(t.TempDir(), 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cm, _ := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	db := New(cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, []Metadata{{ID: 1}}); err == nil {
		t.Fatal("metadata/store size mismatch must error")
	}
	for _, budget := range []int64{0, -1} {
		if err := db.LoadCorpusFromStore(store, budget, nil); err == nil || !strings.Contains(err.Error(), "cacheBytes") {
			t.Fatalf("a %d-byte record cache: err = %v, want a refusal naming cacheBytes", budget, err)
		}
	}
}

// TestServeRepsFromStore: with a store-backed corpus materializing the
// design grid and ServeReps on, content predicates load stored
// representations instead of transforming decoded sources — zero transforms,
// every served rep read through the record cache — and repeated queries
// agree.
func TestServeRepsFromStore(t *testing.T) {
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
	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Archive, params)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *DB {
		db := New(cm)
		if err := db.LoadCorpusFromStore(store, 1<<20, sysMeta); err != nil {
			t.Fatal(err)
		}
		for _, in := range []struct {
			cat string
			sys *core.System
		}{{"cloak", cloakSys}, {"coho", cohoSys}} {
			if err := db.InstallPredicate(in.cat, in.sys, 2); err != nil {
				t.Fatal(err)
			}
		}
		db.ServeReps(true)
		return db
	}
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')"
	db := build()
	res, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepsMaterialized != 0 {
		t.Fatalf("store covers the whole grid, yet %d transforms ran", res.RepsMaterialized)
	}
	if res.RepHits == 0 {
		t.Fatal("no representations served from the store")
	}
	if st, ok := db.RepCacheStats(); !ok || st.Hits+st.Misses < int64(res.RepHits) {
		t.Fatalf("record cache stats %+v (ok=%v) account for fewer reads than the %d served reps", st, ok, res.RepHits)
	}
	// Deterministic: a second DB over the same store returns the same rows.
	res2, err := build().Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != res.Count {
		t.Fatalf("served query not deterministic: %d vs %d rows", res2.Count, res.Count)
	}
	a, b := rowSet(t, res), rowSet(t, res2)
	for id := range a {
		if !b[id] {
			t.Fatalf("row %d only in first served result", id)
		}
	}
}

package vdb

import (
	"testing"

	"tahoma/internal/core"
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
	var fromStore []*img.Image
	if err := store.ScanSource(func(i int, im *img.Image) error {
		fromStore = append(fromStore, im)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
	cache, ok := db.DecodeCache()
	if !ok || cache.Len() != 40 || cache.Bytes() != 40*(10+3*16*16) {
		t.Fatalf("store cache after one scan: ok=%v, %d entries, %d bytes; want 40 stored records", ok, cache.Len(), cache.Bytes())
	}
	// Without a cache the engine reads each record into pooled scratch —
	// same path, same answer.
	db3 := New(cm)
	if err := db3.LoadCorpusFromStore(store, 0, meta); err != nil {
		t.Fatal(err)
	}
	if err := db3.InstallPredicate("cloak", sys, 2); err != nil {
		t.Fatal(err)
	}
	res3, err := db3.Query("SELECT COUNT(*) FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rows[0][0].Int != res.Rows[0][0].Int {
		t.Fatalf("cacheless store-backed count %d != cached count %d", res3.Rows[0][0].Int, res.Rows[0][0].Int)
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

func TestLoadCorpusFromStoreValidation(t *testing.T) {
	store, err := repstore.Create(t.TempDir(), 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cm, _ := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	db := New(cm)
	if err := db.LoadCorpusFromStore(store, 0, []Metadata{{ID: 1}}); err == nil {
		t.Fatal("metadata/store size mismatch must error")
	}
}

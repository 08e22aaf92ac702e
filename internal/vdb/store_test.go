package vdb

import (
	"strings"
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

// TestServedAnswersIndependentOfIngestPath: a representation is its stored
// bytes, derived once from the stored source record, whichever way a row
// came in and whichever way it is held. The same 800 synth frames ingested as
// images (IngestAll) and as their records (AppendRecords) serve the same
// reps; a third store derives every rep in the engine instead (ServeReps
// off); and an in-memory corpus holds the float frames' records. All four
// answer every content query with the same rows. 800 rows is enough for reps
// derived from the caller's float pixels, or left unrounded, to flip a row.
func TestServedAnswersIndependentOfIngestPath(t *testing.T) {
	sysFixture(t)
	cat, err := synth.CategoryByName("cloak")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{BaseSize: 16, TrainN: 10, ConfigN: 10, EvalN: 800, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ims := make([]*img.Image, splits.Eval.Len())
	meta := make([]Metadata, len(ims))
	for i, e := range splits.Eval.Examples {
		ims[i] = e.Image
		meta[i] = Metadata{ID: int64(i), TS: int64(i)}
	}
	grid := xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray})
	recs := make([]img.Record, len(ims))
	for i, im := range ims {
		raw, err := img.AppendRecord(nil, im)
		if err != nil {
			t.Fatal(err)
		}
		if recs[i], err = img.ParseRecord(raw); err != nil {
			t.Fatal(err)
		}
	}
	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Archive, params)
	if err != nil {
		t.Fatal(err)
	}
	dbs := []struct {
		name   string
		served bool // every rep is served, none derived; otherwise the reverse
		db     *DB
	}{{"IngestAll store", true, nil}, {"AppendRecords store", true, nil}, {"derived store", false, nil}, {"in-memory corpus", false, New(cm)}}
	fills := []func(*repstore.Store) error{
		func(s *repstore.Store) error { return s.IngestAll(ims) },
		func(s *repstore.Store) error { return s.AppendRecords(recs) },
		func(s *repstore.Store) error { return s.IngestAll(ims) },
	}
	for i, fill := range fills {
		store, err := repstore.Create(t.TempDir(), 16, 16, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if err := fill(store); err != nil {
			t.Fatal(err)
		}
		dbs[i].db = New(cm)
		if err := dbs[i].db.LoadCorpusFromStore(store, 64<<20, meta); err != nil {
			t.Fatal(err)
		}
		dbs[i].db.ServeReps(dbs[i].served)
	}
	if err := dbs[3].db.LoadCorpus(ims, meta); err != nil {
		t.Fatal(err)
	}
	for _, d := range dbs {
		d.db.SetMaterialization(MatOff) // every query reads representations
		for _, in := range []struct {
			cat string
			sys *core.System
		}{{"cloak", cloakSys}, {"coho", cohoSys}} {
			if err := d.db.InstallPredicate(in.cat, in.sys, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, cat := range []string{"cloak", "coho"} {
		for _, uacc := range []float64{0.1, 0.2} {
			sql := "SELECT id FROM images WHERE contains_object('" + cat + "')"
			cons := core.Constraints{MaxAccuracyLoss: uacc}
			var want map[int64]bool
			for i, d := range dbs {
				res, err := d.db.Query(sql, cons)
				if err != nil {
					t.Fatal(err)
				}
				if d.served && (res.RepHits == 0 || res.RepsMaterialized != 0) || !d.served && (res.RepHits != 0 || res.RepsMaterialized == 0) {
					t.Fatalf("%s, %s at Uacc %.1f: %d reps served, %d derived; want every rep served=%v", d.name, cat, uacc, res.RepHits, res.RepsMaterialized, d.served)
				}
				got := rowSet(t, res)
				if i == 0 {
					want = got
					continue
				}
				if flips := flipCount(want, got); flips != 0 {
					t.Fatalf("%s at Uacc %.1f: %s answered %d rows, %s %d: %d rows flipped", cat, uacc, dbs[0].name, len(want), d.name, len(got), flips)
				}
			}
		}
	}
}

// flipCount is the number of rows in exactly one of two answers.
func flipCount(a, b map[int64]bool) int {
	n := 0
	for id := range a {
		if !b[id] {
			n++
		}
	}
	for id := range b {
		if !a[id] {
			n++
		}
	}
	return n
}

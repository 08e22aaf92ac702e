package vdb

import (
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/planner"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
)

// TestAdaptiveSelectivityFeedback: a query's observed pass rates land on the
// result, fold into the catalog, show up in PlannerStats and EXPLAIN, and
// reorder the next plan.
func TestAdaptiveSelectivityFeedback(t *testing.T) {
	db, truth := buildTestDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}

	// Seeded state: EXPLAIN reports the seed, no samples.
	out, err := db.Explain("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(seeded)") {
		t.Fatalf("pre-query explain not seeded:\n%s", out)
	}

	res, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Observed) != 1 {
		t.Fatalf("observed: %+v", res.Observed)
	}
	ob := res.Observed[0]
	if ob.Category != "cloak" || ob.Frames != 40 {
		t.Fatalf("observed: %+v", ob)
	}
	if ob.Positives != res.Count {
		t.Fatalf("positives %d but %d rows survived a non-negated predicate", ob.Positives, res.Count)
	}

	st := db.PlannerStats()
	if st.ContentPlans != 1 {
		t.Fatalf("content plans: %+v", st)
	}
	var entry *planner.CatalogEntry
	for i, e := range st.Selectivity {
		if e.Key == "cloak" {
			entry = &st.Selectivity[i]
		}
	}
	if entry == nil || entry.Samples != 40 {
		t.Fatalf("catalog entry: %+v (selectivity %+v)", entry, st.Selectivity)
	}
	// The seed acts as a 64-frame prior: expect the exact batch-weighted
	// EWMA step from the seed toward the observed rate.
	obsRate := float64(ob.Positives) / 40
	w := 40.0 / (40 + 64)
	want := entry.Seed + w*(obsRate-entry.Seed)
	if diff := entry.PassRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("catalog rate %v, want %v (seed %v, observed %v)", entry.PassRate, want, entry.Seed, obsRate)
	}
	_ = truth

	// EXPLAIN now reports the observation.
	out, err = db.Explain("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "observed, n=40") {
		t.Fatalf("post-query explain not observed:\n%s", out)
	}
}

// TestExplainReflectsRecordCacheState: the same statement plans differently
// against a cold and a warm record cache. Once a scan has pulled every source
// record of a store-backed corpus into the cache, the planner prices the
// source read away and EXPLAIN prints the rep-adjusted cost.
func TestExplainReflectsRecordCacheState(t *testing.T) {
	sysFixture(t)
	store, err := repstore.Create(t.TempDir(), 16, 16, nil)
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
	db := New(cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, sysMeta); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallPredicate("cloak", cloakSys, 2); err != nil {
		t.Fatal(err)
	}
	// No label reuse: the warm plan differs from the cold one by what the
	// record cache holds, not by a materialized column.
	db.SetMaterialization(MatOff)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak')"

	cold, err := db.Explain(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cold, "rep-adjusted") {
		t.Fatalf("cold explain already discounts the source read:\n%s", cold)
	}

	// The full scan reads every source record through the cache.
	if _, err := db.Query(sql, cons); err != nil {
		t.Fatal(err)
	}
	warm, err := db.Explain(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm, "rep-adjusted") {
		t.Fatalf("warm explain ignores the resident source records:\n%s", warm)
	}
	if warm == cold {
		t.Fatal("explain identical cold and warm")
	}
}

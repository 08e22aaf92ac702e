package vdb

import (
	"fmt"
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/planner"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
)

// setPlanOptions installs the ordering policy (po.Order) for subsequent
// queries. Serving always plans with the zero value; OrderStatic is an
// oracle, since labels are identical under both and only the work to reach
// them differs.
func (db *DB) setPlanOptions(po planner.Options) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.planOpts = po
	db.publishLocked()
}

// planOrderConds are the content conditions the invariance property permutes:
// AND-chained predicates including a negation and a second mention of the
// cloak system under another category.
var planOrderConds = []string{
	"contains_object('cloak')",
	"NOT contains_object('coho')",
	"contains_object('cloak2')",
}

func permutations(n int) [][]int {
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(prefix, rest[i]), next)
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rec(nil, idx)
	return out
}

func permSQL(perm []int) string {
	conds := make([]string, len(perm))
	for i, p := range perm {
		conds[i] = planOrderConds[p]
	}
	return "SELECT id FROM images WHERE " + strings.Join(conds, " AND ")
}

// TestContentOrderInvariance is the planner's safety property: whatever
// order the content predicates execute in — any textual permutation, rank or
// static ordering, any engine sizing — the surviving rows are bit-identical.
// Ordering changes the work, never the answer.
func TestContentOrderInvariance(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	perms := permutations(len(planOrderConds))

	run := func(perm []int, po planner.Options, opts exec.Options) *Result {
		t.Helper()
		db := buildSysDB(t)
		db.setPlanOptions(po)
		if opts != (exec.Options{}) {
			db.SetExecOptions(opts)
		}
		res, err := db.Query(permSQL(perm), cons)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(perms[0], planner.Options{}, exec.Options{})
	baseRows := rowSet(t, base)
	check := func(res *Result, label string) {
		t.Helper()
		if res.Count != base.Count {
			t.Fatalf("%s: %d rows, baseline %d", label, res.Count, base.Count)
		}
		got := rowSet(t, res)
		for id := range baseRows {
			if !got[id] {
				t.Fatalf("%s: row %d missing", label, id)
			}
		}
	}

	// Every textual permutation, under each ordering policy.
	for _, perm := range perms {
		check(run(perm, planner.Options{}, exec.Options{}), fmt.Sprintf("perm %v", perm))
		check(run(perm, planner.Options{Order: planner.OrderStatic}, exec.Options{}), fmt.Sprintf("static perm %v", perm))
	}
	// Engine sizings on a representative permutation.
	perm := perms[3]
	for _, o := range []exec.Options{{Workers: 1, Batch: 1}, {Workers: 4, Batch: 3}, {Workers: 2, Batch: 64}} {
		check(run(perm, planner.Options{}, o), fmt.Sprintf("w=%d b=%d", o.Workers, o.Batch))
	}
}

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
	if st.RankPlans != 1 || st.StaticPlans != 0 {
		t.Fatalf("plan counters: %+v", st)
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

// TestStaticOrderCounters: the escape hatch is counted as such.
func TestStaticOrderCounters(t *testing.T) {
	db, _ := buildTestDB(t)
	db.setPlanOptions(planner.Options{Order: planner.OrderStatic})
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	if _, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons); err != nil {
		t.Fatal(err)
	}
	st := db.PlannerStats()
	if st.StaticPlans != 1 || st.RankPlans != 0 {
		t.Fatalf("plan counters: %+v", st)
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

package vdb

import (
	"fmt"
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/planner"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
)

// setPlanOptions installs the ordering and fusion policies (po.Order,
// po.Fusion) for subsequent queries. Serving always plans with the zero
// value; the other policies are oracles, since labels are identical under
// all of them and only the work to reach them differs.
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
// static ordering, fused or sequential content phase, any engine sizing —
// the surviving rows are bit-identical. Ordering and fusion change the work,
// never the answer.
func TestContentOrderInvariance(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	perms := permutations(len(planOrderConds))

	run := func(perm []int, po planner.Options, opts exec.Options) *Result {
		t.Helper()
		db := buildFusedDB(t)
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

	// Every textual permutation under the default (rank, cost-based fusion).
	for _, perm := range perms[1:] {
		check(run(perm, planner.Options{}, exec.Options{}), fmt.Sprintf("perm %v", perm))
	}
	// Policy × fusion matrix on a representative permutation.
	perm := perms[3]
	check(run(perm, planner.Options{Order: planner.OrderStatic}, exec.Options{}), "static order")
	check(run(perm, planner.Options{Fusion: planner.FusionShared}, exec.Options{}), "forced fusion")
	check(run(perm, planner.Options{Order: planner.OrderStatic, Fusion: planner.FusionShared}, exec.Options{}), "static+forced fusion")
	check(run(perm, planner.Options{Fusion: planner.FusionNever}, exec.Options{}), "fusion off")
	// Engine sizings, fused and sequential.
	for _, o := range []exec.Options{{Workers: 1, Batch: 1}, {Workers: 4, Batch: 3}, {Workers: 2, Batch: 64}} {
		check(run(perm, planner.Options{Fusion: planner.FusionShared}, o), fmt.Sprintf("fused w=%d b=%d", o.Workers, o.Batch))
		check(run(perm, planner.Options{Fusion: planner.FusionNever}, o), fmt.Sprintf("sequential w=%d b=%d", o.Workers, o.Batch))
	}
}

// TestFusionCostDecision pins the default cost-based gate end to end: under
// the inference-dominated CAMERA pricing of the tiny fixture, sequential
// narrowing is cheaper and the planner keeps it; under ARCHIVE pricing the
// shared source decode and representation work dominate, and the same query
// fuses.
func TestFusionCostDecision(t *testing.T) {
	fusedFixture(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')"
	build := func(kind scenario.Kind) *DB {
		cm, err := scenario.NewAnalytic(kind, scenario.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		db := New(cm)
		if err := db.LoadCorpus(fusedImages, fusedMeta); err != nil {
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
		return db
	}

	camera := build(scenario.Camera)
	out, err := camera.Explain(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Sequential: narrowing beats fusion") {
		t.Fatalf("camera explain does not choose sequential:\n%s", out)
	}
	res, err := camera.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fused {
		t.Fatal("inference-dominated pricing should keep sequential narrowing")
	}

	archive := build(scenario.Archive)
	out, err = archive.Explain(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fused: 2 content predicates") {
		t.Fatalf("archive explain does not choose fusion:\n%s", out)
	}
	resA, err := archive.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Fused {
		t.Fatal("source-decode-dominated pricing should fuse")
	}
	// The decision changes the work, not the answer.
	if res.Count != resA.Count {
		t.Fatalf("camera %d rows, archive %d", res.Count, resA.Count)
	}
}

// TestFusedLivePendingGuard: the plan-time fusion verdict can rest on a
// predicate that a metadata filter leaves fully cached on the live rows.
// Execution must re-check slot sharing over the cascades actually pending
// there and fall back to sequential narrowing when they share nothing.
func TestFusedLivePendingGuard(t *testing.T) {
	fusedFixture(t)
	// A red-channel-only system: disjoint from the TinyConfig rgb/gray grid.
	cfg := core.TinyConfig()
	cfg.Sizes = []int{8}
	cfg.Colors = []img.ColorMode{img.Red}
	cfg.DeepXform = xform.Transform{Size: 8, Color: img.Red}
	cat, err := synth.CategoryByName("coho")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 60, ConfigN: 30, EvalN: 30, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	redSys, err := core.Initialize("redcoho", splits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := New(cm)
	if err := db.LoadCorpus(fusedImages, fusedMeta); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		cat string
		sys *core.System
	}{{"cloak", cloakSys}, {"cloak2", cloakSys}, {"redcoho", redSys}} {
		if err := db.InstallPredicate(in.cat, in.sys, 2); err != nil {
			t.Fatal(err)
		}
	}
	// FusionShared makes the plan-time verdict rest purely on corpus-wide
	// slot sharing, which cloak↔cloak2 provide.
	db.setPlanOptions(planner.Options{Fusion: planner.FusionShared})
	cons := core.Constraints{MaxAccuracyLoss: 0.05}

	// Fill cloak for the uptown rows only: corpus-wide it stays pending
	// (and shares slots with cloak2), but on the filtered live set it is
	// fully cached.
	if _, err := db.Query("SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak')", cons); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(
		"SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak') AND contains_object('cloak2') AND contains_object('redcoho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fused {
		t.Fatal("fused path taken although the live-pending cascades (cloak2, redcoho) share no slot")
	}
	// The same query without the priming step leaves cloak pending on the
	// live rows too, so sharing holds and fusion proceeds.
	db2 := buildFusedDB(t)
	if err := db2.InstallPredicate("redcoho", redSys, 2); err != nil {
		t.Fatal(err)
	}
	res2, err := db2.Query(
		"SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak') AND contains_object('cloak2') AND contains_object('redcoho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Fused {
		t.Fatal("fused path not taken although cloak and cloak2 both pend and share slots")
	}
	if res.Count != res2.Count {
		t.Fatalf("guarded run %d rows, fused run %d", res.Count, res2.Count)
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
	if st.SequentialPlans+st.FusedPlans != 1 {
		t.Fatalf("content-phase counters: %+v", st)
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
	fusedFixture(t)
	store, err := repstore.Create(t.TempDir(), 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.IngestAll(fusedImages); err != nil {
		t.Fatal(err)
	}
	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Archive, params)
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

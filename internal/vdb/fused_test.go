package vdb

import (
	"strings"
	"sync"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/planner"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
)

// Trained systems are cached across the fused tests: initialization is the
// expensive part and the systems are stateless for classification.
var (
	fusedOnce   sync.Once
	fusedErr    error
	cloakSys    *core.System
	cohoSys     *core.System
	fusedImages []*img.Image
	fusedMeta   []Metadata
)

func fusedFixture(t testing.TB) {
	t.Helper()
	fusedOnce.Do(func() {
		train := func(category string) (*core.System, synth.Splits, error) {
			cat, err := synth.CategoryByName(category)
			if err != nil {
				return nil, synth.Splits{}, err
			}
			splits, err := synth.GenerateBinary(cat, synth.Options{
				BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
			})
			if err != nil {
				return nil, synth.Splits{}, err
			}
			sys, err := core.Initialize(category, splits, core.TinyConfig())
			return sys, splits, err
		}
		var splits synth.Splits
		if cloakSys, splits, fusedErr = train("cloak"); fusedErr != nil {
			return
		}
		if cohoSys, _, fusedErr = train("coho"); fusedErr != nil {
			return
		}
		locations := []string{"uptown", "downtown"}
		for i, e := range splits.Eval.Examples {
			fusedImages = append(fusedImages, e.Image)
			fusedMeta = append(fusedMeta, Metadata{
				ID: int64(i), Location: locations[i%2], Camera: "cam-1", TS: int64(i * 10),
			})
		}
	})
	if fusedErr != nil {
		t.Fatal(fusedErr)
	}
}

// buildFusedDB assembles a fresh DB over the shared corpus with the cloak
// system installed under two categories (fully-overlapping rep grids) and
// the coho system as a third, independent predicate.
func buildFusedDB(t testing.TB) *DB {
	t.Helper()
	fusedFixture(t)
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
	}{{"cloak", cloakSys}, {"cloak2", cloakSys}, {"coho", cohoSys}} {
		if err := db.InstallPredicate(in.cat, in.sys, 2); err != nil {
			t.Fatal(err)
		}
	}
	// These tests pin the fused executor (labels, need masks, rep
	// accounting), not the planner's cost decision — the tiny fixture is
	// inference-dominated, where the cost model legitimately prefers
	// sequential narrowing. The legacy slot-sharing gate forces the path
	// under test; TestFusionCostDecision covers the default policy.
	db.setPlanOptions(planner.Options{Fusion: planner.FusionShared})
	return db
}

func rowSet(t *testing.T, res *Result) map[int64]bool {
	t.Helper()
	out := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].Int] = true
	}
	return out
}

// TestFusedQueryMatchesSequential: a two-predicate query returns identical
// rows fused and sequential, the fused run classifies every live row for
// every predicate in one pass (filling both columns), and — with
// fully-overlapping rep grids — materializes exactly the representations a
// single-predicate full scan would, not twice that.
func TestFusedQueryMatchesSequential(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('cloak2')"

	single, err := buildFusedDB(t).Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}

	dbF := buildFusedDB(t)
	resF, err := dbF.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	dbS := buildFusedDB(t)
	dbS.setPlanOptions(planner.Options{Fusion: planner.FusionNever})
	resS, err := dbS.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}

	if !resF.Fused {
		t.Fatal("two pending predicates should take the fused path")
	}
	if resS.Fused {
		t.Fatal("FusionNever must keep the sequential path")
	}
	if resF.Count != resS.Count {
		t.Fatalf("fused %d rows, sequential %d", resF.Count, resS.Count)
	}
	fRows, sRows := rowSet(t, resF), rowSet(t, resS)
	for id := range fRows {
		if !sRows[id] {
			t.Fatalf("row %d only in fused result", id)
		}
	}
	// Fused classifies all 40 rows under both predicates at once; the
	// sequential path narrows, paying 40 + survivors.
	if resF.UDFCalls != 80 {
		t.Fatalf("fused UDF calls = %d, want 80", resF.UDFCalls)
	}
	if resS.UDFCalls != 40+resS.Count {
		t.Fatalf("sequential UDF calls = %d, want %d", resS.UDFCalls, 40+resS.Count)
	}
	// Exactly-once materialization: both cascades are the same spec, so the
	// fused two-predicate scan transforms no more than one predicate's
	// full scan does.
	if resF.RepsMaterialized != single.RepsMaterialized {
		t.Fatalf("fused 2-predicate scan materialized %d reps, single-predicate scan %d",
			resF.RepsMaterialized, single.RepsMaterialized)
	}
	// Both columns are now fully materialized: repeats are free.
	again, err := dbF.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if again.UDFCalls != 0 || again.Fused {
		t.Fatalf("repeat query: %d UDF calls (fused=%v), want 0 cached", again.UDFCalls, again.Fused)
	}
	if again.Count != resF.Count {
		t.Fatal("cached repeat disagrees with fused run")
	}
}

// TestFusedDistinctSystems: fusing predicates from different systems (cloak
// + coho) returns the same rows as sequential execution at every engine
// sizing.
func TestFusedDistinctSystems(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')"
	dbS := buildFusedDB(t)
	dbS.setPlanOptions(planner.Options{Fusion: planner.FusionNever})
	resS, err := dbS.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		workers, batch int
	}{{1, 1}, {4, 3}, {2, 64}, {2, 8}, {1, 4}} {
		db := buildFusedDB(t)
		opts := db.execOpts
		opts.Workers, opts.Batch = o.workers, o.batch
		db.SetExecOptions(opts)
		res, err := db.Query(sql, cons)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fused {
			t.Fatalf("opts %+v: fused path not taken", o)
		}
		if res.Count != resS.Count {
			t.Fatalf("opts %+v: fused %d rows, sequential %d", o, res.Count, resS.Count)
		}
		sRows, rRows := rowSet(t, resS), rowSet(t, res)
		for id := range rRows {
			if !sRows[id] {
				t.Fatalf("opts %+v: row %d only in fused result", o, id)
			}
		}
	}
}

// TestFusedPartialCoverage: a predicate with rows cached by an earlier
// filtered query must not re-classify them inside the fused pass — the need
// masks carry per-predicate coverage.
func TestFusedPartialCoverage(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	db := buildFusedDB(t)
	// Prime cloak's column for the 20 uptown rows.
	first, err := db.Query("SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if first.UDFCalls != 20 {
		t.Fatalf("priming query ran %d classifications, want 20", first.UDFCalls)
	}
	// The fused two-predicate scan now owes cloak 20 rows and coho 40.
	res, err := db.Query("SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fused {
		t.Fatal("fused path not taken")
	}
	if res.UDFCalls != 60 {
		t.Fatalf("fused pass ran %d classifications, want 60 (20 cloak + 40 coho)", res.UDFCalls)
	}
	// Same rows as a sequential run on a fresh DB.
	dbS := buildFusedDB(t)
	dbS.setPlanOptions(planner.Options{Fusion: planner.FusionNever})
	resS, err := dbS.Query("SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != resS.Count {
		t.Fatalf("fused-after-priming %d rows, sequential %d", res.Count, resS.Count)
	}
}

// TestServeRepsFromStore: with a store-backed corpus materializing the
// design grid and ServeReps on, content predicates load stored
// representations instead of transforming decoded sources — zero transforms,
// every served rep read through the record cache — and repeated queries
// agree.
func TestServeRepsFromStore(t *testing.T) {
	fusedFixture(t)
	grid := xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray})
	store, err := repstore.Create(t.TempDir(), 16, 16, grid)
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
	build := func() *DB {
		db := New(cm)
		if err := db.LoadCorpusFromStore(store, 1<<20, fusedMeta); err != nil {
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
		// With every slot served, there is no rep work left to share, so
		// the cost model prefers narrowing; the gate policy keeps this
		// test on the fused path it exercises.
		db.setPlanOptions(planner.Options{Fusion: planner.FusionShared})
		return db
	}
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')"
	db := build()
	res, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fused {
		t.Fatal("fused path not taken")
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

// TestFusedDisjointGridsFallBack: when the planned cascades share no
// representation slot there is nothing for fusion to amortize, so the
// content phase keeps the sequential path (and its predicate narrowing),
// and EXPLAIN does not advertise fusion.
func TestFusedDisjointGridsFallBack(t *testing.T) {
	fusedFixture(t)
	// A design space entirely over the red channel: disjoint from the
	// TinyConfig rgb/gray grid whatever cascade the planner picks.
	cfg := core.TinyConfig()
	cfg.Sizes = []int{8}
	cfg.Colors = []img.ColorMode{img.Red}
	cfg.DeepXform = xform.Transform{Size: 8, Color: img.Red}
	cat, err := synth.CategoryByName("coho")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 60, ConfigN: 30, EvalN: 30, Seed: 11,
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
	if err := db.InstallPredicate("cloak", cloakSys, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallPredicate("redcoho", redSys, 2); err != nil {
		t.Fatal(err)
	}
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('redcoho')"
	out, err := db.Explain(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Fused:") {
		t.Fatalf("explain advertises fusion for disjoint grids:\n%s", out)
	}
	res, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fused {
		t.Fatal("disjoint rep grids must fall back to sequential narrowing")
	}
	// Narrowing held: the second predicate only classified the first's
	// survivors.
	if res.UDFCalls > 80 {
		t.Fatalf("sequential fallback ran %d classifications over 40 rows × 2 predicates", res.UDFCalls)
	}
	// A duplicate mention of the first predicate must not manufacture slot
	// sharing: the gate sees two distinct pending columns on disjoint
	// grids, not the duplicate's trivial self-overlap.
	res3, err := db.Query(
		"SELECT id FROM images WHERE contains_object('cloak') AND NOT contains_object('cloak') AND contains_object('redcoho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Fused {
		t.Fatal("duplicate predicate mention must not flip the disjoint-grid gate")
	}
	if res3.Count != 0 {
		t.Fatalf("X AND NOT X AND Y returned %d rows", res3.Count)
	}
}

// TestFusedDuplicatePredicate: referencing the same predicate twice (the
// degenerate X AND NOT X) must classify each row once, not once per
// mention, fused or not.
func TestFusedDuplicatePredicate(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND NOT contains_object('cloak')"
	db := buildFusedDB(t)
	res, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("X AND NOT X returned %d rows", res.Count)
	}
	if res.UDFCalls != 40 {
		t.Fatalf("duplicate predicate ran %d classifications, want 40", res.UDFCalls)
	}
	// Three mentions where two share a column still fuse — and the shared
	// column is classified once.
	db2 := buildFusedDB(t)
	res2, err := db2.Query(
		"SELECT id FROM images WHERE contains_object('cloak') AND NOT contains_object('cloak') AND contains_object('coho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Fused {
		t.Fatal("two distinct pending columns should take the fused path")
	}
	if res2.UDFCalls != 80 {
		t.Fatalf("duplicate-plus-distinct ran %d classifications, want 80", res2.UDFCalls)
	}
	if res2.Count != 0 {
		t.Fatalf("X AND NOT X AND Y returned %d rows", res2.Count)
	}
}

// TestExplainFused: EXPLAIN advertises the fused content phase.
func TestExplainFused(t *testing.T) {
	db := buildFusedDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	out, err := db.Explain("SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fused: 2 content predicates") {
		t.Fatalf("explain missing fused line:\n%s", out)
	}
	db.setPlanOptions(planner.Options{Fusion: planner.FusionNever})
	out, err = db.Explain("SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Fused:") {
		t.Fatalf("explain shows fused line with fusion off:\n%s", out)
	}
}

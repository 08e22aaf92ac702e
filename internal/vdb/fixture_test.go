package vdb

import (
	"sync"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
)

// Trained systems are cached across the tests that share them:
// initialization is the expensive part and the systems are stateless for
// classification.
var (
	sysOnce   sync.Once
	sysErr    error
	cloakSys  *core.System
	cohoSys   *core.System
	sysImages []*img.Image
	sysMeta   []Metadata
)

func sysFixture(t testing.TB) {
	t.Helper()
	sysOnce.Do(func() {
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
		if cloakSys, splits, sysErr = train("cloak"); sysErr != nil {
			return
		}
		if cohoSys, _, sysErr = train("coho"); sysErr != nil {
			return
		}
		locations := []string{"uptown", "downtown"}
		for i, e := range splits.Eval.Examples {
			sysImages = append(sysImages, e.Image)
			sysMeta = append(sysMeta, Metadata{
				ID: int64(i), Location: locations[i%2], Camera: "cam-1", TS: int64(i * 10),
			})
		}
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
}

// buildSysDB assembles a fresh DB over the shared corpus with the cloak
// system installed under two categories (one cascade, two columns) and the
// coho system as a third, independent predicate.
func buildSysDB(t testing.TB) *DB {
	t.Helper()
	sysFixture(t)
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := New(cm)
	if err := db.LoadCorpus(sysImages, sysMeta); err != nil {
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

// TestSequentialNarrowing: a two-predicate query classifies its first step
// over every live row and its second only over the first's survivors, and
// the repeat of the chain is bitmap algebra over the columns it filled. The
// two predicates are one cascade under two names, so the second step keeps
// every row the first let through.
func TestSequentialNarrowing(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	sql := "SELECT id FROM images WHERE contains_object('cloak') AND contains_object('cloak2')"
	db := buildSysDB(t)
	res, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sysImages); res.UDFCalls != n+res.Count {
		t.Fatalf("UDF calls = %d, want %d (every row, then the %d survivors)", res.UDFCalls, n+res.Count, res.Count)
	}
	if len(res.Observed) != 2 || res.Observed[1].Frames != res.Count {
		t.Fatalf("observed %+v: want the second step to classify only the %d survivors", res.Observed, res.Count)
	}
	single, err := buildSysDB(t).Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if single.Count != res.Count {
		t.Fatalf("X AND X' returned %d rows, X alone %d", res.Count, single.Count)
	}
	again, err := db.Query(sql, cons)
	if err != nil {
		t.Fatal(err)
	}
	if again.UDFCalls != 0 || !again.Bitmap || again.Count != res.Count {
		t.Fatalf("repeat query: %d UDF calls, bitmap=%v, %d rows; want 0, true, %d", again.UDFCalls, again.Bitmap, again.Count, res.Count)
	}
}

// TestDuplicatePredicateClassifiesOnce: referencing the same predicate twice
// (the degenerate X AND NOT X) classifies each row once, not once per
// mention: the later mention finds its column filled by the earlier one.
func TestDuplicatePredicateClassifiesOnce(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	db := buildSysDB(t)
	res, err := db.Query("SELECT id FROM images WHERE contains_object('cloak') AND NOT contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("X AND NOT X returned %d rows", res.Count)
	}
	if res.UDFCalls != len(sysImages) || len(res.Observed) != 1 {
		t.Fatalf("duplicate predicate ran %d classifications in %d steps, want %d in 1", res.UDFCalls, len(res.Observed), len(sysImages))
	}
	// With a third, distinct predicate in the chain the shared column is
	// still classified in one step, whichever order the planner picks.
	res2, err := buildSysDB(t).Query(
		"SELECT id FROM images WHERE contains_object('cloak') AND NOT contains_object('cloak') AND contains_object('coho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != 0 {
		t.Fatalf("X AND NOT X AND Y returned %d rows", res2.Count)
	}
	cloakSteps := 0
	for _, ob := range res2.Observed {
		if ob.Category == "cloak" {
			cloakSteps++
		}
	}
	if cloakSteps != 1 {
		t.Fatalf("observed %+v: cloak classified in %d steps, want 1", res2.Observed, cloakSteps)
	}
}

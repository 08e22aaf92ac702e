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

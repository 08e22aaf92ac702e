// Package e2e is TAHOMA's end-to-end scenario harness: it launches real
// `tahoma serve` subprocesses over a trained fixture, replays declarative
// traffic mixes recorded as committed JSON traces, and asserts both
// bit-parity: every response canonicalized and byte-compared against a
// serial in-process reference replay of the same trace. Time is not asserted
// here; the scenario benchmark (bench/) measures it.
//
// The package is a library, not just tests, so other suites (the crash
// tests under cmd/tahoma) can reuse the subprocess machinery. The test
// files add the subprocess suite on top: the traffic-mix matrix
// (TestScenarioMixes) and the live camera-fleet workload (TestCameraFleet),
// which is the paper's motivating deployment.
//
// This is distinct from internal/scenario, which holds the paper's
// deployment cost models.
package e2e

import (
	"bytes"
	"fmt"
	"path/filepath"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
	"tahoma/internal/zoo"
)

// Fixture is the harness's deterministic world: one trained tiny predicate
// persisted as a zoo, a representation store over its eval split (the
// corpus every server process starts from), and the eval images kept in
// memory — both as decoded sources for the in-process reference replay and
// TIMG-encoded for ingest ops.
type Fixture struct {
	// ZooDir is the persisted model repository (`tahoma serve -zoo`).
	ZooDir string
	// StoreDir is the pristine representation store. Server processes get a
	// private copy (ingest and durability mutate the store), built with
	// CopyStore.
	StoreDir string
	// Sys is the trained system, for in-process reference replays.
	Sys *core.System
	// Category is the predicate category the zoo installs ("cloak").
	Category string
	// Sources are the corpus images, in row order.
	Sources []*img.Image
	// Encoded are the TIMG encodings of Sources, the payload for
	// POST /ingest rows (traces reference them by index).
	Encoded [][]byte
	// Rows is len(Sources).
	Rows int
}

// fixtureCategory is the synth category the fixture trains. serve installs
// the predicate under the category name extracted from the zoo's
// "contains_object(...)" predicate string.
const fixtureCategory = "cloak"

// FixtureRows is the fixture corpus size (the eval split). Trace generation
// (Mixes) references it without needing a built fixture.
const FixtureRows = 40

// BuildFixture trains the fixture into dir (zoo/ and store/ subdirectories).
// Fixed seeds and the analytic cost model make every artifact — weights,
// thresholds, store bytes — deterministic, which is what lets traces be
// committed JSON and failures be replayable.
func BuildFixture(dir string) (*Fixture, error) {
	fx := &Fixture{
		ZooDir:   filepath.Join(dir, "zoo"),
		StoreDir: filepath.Join(dir, "store"),
		Category: fixtureCategory,
	}
	cat, err := synth.CategoryByName(fixtureCategory)
	if err != nil {
		return nil, err
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: FixtureRows, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	fx.Sys, err = core.Initialize("contains_object("+fixtureCategory+")", splits, core.TinyConfig())
	if err != nil {
		return nil, err
	}
	if err := zoo.Save(fx.ZooDir, fx.Sys.Repo()); err != nil {
		return nil, err
	}

	// Materialize the tiny design grid so fault-armed -serve-reps runs cover
	// every planned transform.
	grid := xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray})
	store, err := repstore.Create(fx.StoreDir, 16, 16, grid)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	for _, e := range splits.Eval.Examples {
		fx.Sources = append(fx.Sources, e.Image)
		var buf bytes.Buffer
		if err := img.Encode(&buf, e.Image); err != nil {
			return nil, err
		}
		fx.Encoded = append(fx.Encoded, buf.Bytes())
	}
	if err := store.IngestAll(fx.Sources); err != nil {
		return nil, err
	}
	fx.Rows = len(fx.Sources)
	if fx.Rows != FixtureRows {
		return nil, fmt.Errorf("e2e: fixture has %d eval rows, want %d", fx.Rows, FixtureRows)
	}
	return fx, nil
}

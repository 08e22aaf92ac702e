package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
	"tahoma/internal/zoo"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// The CLI golden fixture: one trained tiny predicate persisted as a zoo and
// a representation store over its eval split, built once per test run.
var cliFixture struct {
	once     sync.Once
	err      error
	zooDir   string
	storeDir string
}

func buildCLIFixture(t *testing.T) (zooDir, storeDir string) {
	t.Helper()
	cliFixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "tahoma-cli-golden")
		if err != nil {
			cliFixture.err = err
			return
		}
		cliFixture.zooDir = filepath.Join(dir, "zoo")
		cliFixture.storeDir = filepath.Join(dir, "store")
		cat, err := synth.CategoryByName("cloak")
		if err != nil {
			cliFixture.err = err
			return
		}
		splits, err := synth.GenerateBinary(cat, synth.Options{
			BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
		})
		if err != nil {
			cliFixture.err = err
			return
		}
		sys, err := core.Initialize("contains_object(cloak)", splits, core.TinyConfig())
		if err != nil {
			cliFixture.err = err
			return
		}
		if err := zoo.Save(cliFixture.zooDir, sys.Repo()); err != nil {
			cliFixture.err = err
			return
		}
		// Materialize the tiny design grid so -serve-reps covers every
		// planned transform.
		grid := xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray})
		store, err := repstore.Create(cliFixture.storeDir, 16, 16, grid)
		if err != nil {
			cliFixture.err = err
			return
		}
		defer store.Close()
		var images []*img.Image
		for _, e := range splits.Eval.Examples {
			images = append(images, e.Image)
		}
		cliFixture.err = store.IngestAll(images)
	})
	if cliFixture.err != nil {
		t.Fatal(cliFixture.err)
	}
	return cliFixture.zooDir, cliFixture.storeDir
}

func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	out, rerr := io.ReadAll(r)
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out)
}

// TestExplainGolden pins `tahoma explain` byte for byte, so plan-format
// drift — cost lines, selectivity provenance, ordering and fusion verdicts —
// is a deliberate diff. Regenerate with:
//
//	go test ./cmd/tahoma -run TestExplainGolden -update
//
// The fixture is fully deterministic (fixed seeds, analytic costs); the
// golden bytes are produced and checked on the CI architecture.
func TestExplainGolden(t *testing.T) {
	zooDir, storeDir := buildCLIFixture(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"single", []string{
			"-zoo", zooDir, "-corpus", storeDir,
			"-sql", "SELECT id FROM images WHERE ts >= 10 AND contains_object('cloak') LIMIT 3",
		}},
		{"negated-pair", []string{
			"-zoo", zooDir, "-corpus", storeDir,
			"-sql", "SELECT COUNT(*) FROM images WHERE contains_object('cloak') AND NOT contains_object('cloak')",
		}},
		{"serve-reps", []string{
			"-zoo", zooDir, "-corpus", storeDir, "-serve-reps",
			"-sql", "SELECT id FROM images WHERE contains_object('cloak')",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := captureStdout(t, func() error { return cmdQuery("explain", tc.args) })
			checkGolden(t, "explain_"+tc.name, out)
		})
	}
}

// TestFrontierGolden pins `tahoma frontier` byte for byte under the analytic
// cost model: the cascades it evaluates, the Pareto set and the level
// occupancy of the 5%-loss pick. Regenerate with:
//
//	go test ./cmd/tahoma -run TestFrontierGolden -update
func TestFrontierGolden(t *testing.T) {
	zooDir, _ := buildCLIFixture(t)
	for _, scen := range []string{"camera", "ongoing"} {
		t.Run(scen, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return cmdFrontier([]string{"-zoo", zooDir, "-scenario", scen})
			})
			checkGolden(t, "frontier_"+scen, out)
		})
	}
}

// checkGolden compares out with testdata/<name>.golden, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if out != string(want) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, out, want)
	}
}

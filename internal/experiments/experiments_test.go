package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tahoma/internal/noscope"
	"tahoma/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// The suite trains models, so build it once for the whole test binary.
var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite(TestConfig(), nil)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestNewSuiteValidation(t *testing.T) {
	cfg := TestConfig()
	cfg.Predicates = nil
	if _, err := NewSuite(cfg, nil); err == nil {
		t.Fatal("no predicates must error")
	}
	cfg = TestConfig()
	cfg.Predicates = []string{"zebra"}
	if _, err := NewSuite(cfg, nil); err == nil {
		t.Fatal("unknown predicate must error")
	}
}

func TestTableII(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	s.TableII(&buf)
	out := buf.String()
	for _, p := range s.Config.Predicates {
		if !strings.Contains(out, p) {
			t.Fatalf("Table II missing predicate %s:\n%s", p, out)
		}
	}
}

func TestFigure4(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Figure4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 || len(res.Frontier) == 0 || len(res.InferOnlyChoices) == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// The aware frontier can never lose to the oblivious choice set in its
	// own cost context.
	if res.SpeedupAwareness < 1-1e-9 {
		t.Fatalf("awareness speedup %.3f < 1 — frontier beaten in its own scenario", res.SpeedupAwareness)
	}
}

func TestFigure5(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Figure5(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.TahomaCount <= res.BaselineCount {
		t.Fatalf("TAHOMA design space (%d) must dwarf Baseline (%d)", res.TahomaCount, res.BaselineCount)
	}
	// TAHOMA's set is a superset of the baseline design space, so its
	// frontier ALC cannot be worse over the baseline range.
	if res.ALCSpeedup < 1-1e-9 {
		t.Fatalf("TAHOMA lost to its own subset: %.3f", res.ALCSpeedup)
	}
}

func TestFigure6And7Shapes(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	rows6, err := s.Figure6(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows6) != 4 {
		t.Fatalf("Figure 6 rows: %d", len(rows6))
	}
	byKind := map[scenario.Kind]Fig6Row{}
	for _, r := range rows6 {
		byKind[r.Scenario] = r
		if r.VsResNet <= 0 || r.VsBaselineRange <= 0 {
			t.Fatalf("non-positive speedups: %+v", r)
		}
	}
	// Data handling costs shrink the INFER_ONLY advantage (the paper's
	// headline shape): ARCHIVE speedup over the reference must not exceed
	// the INFER_ONLY speedup.
	if byKind[scenario.Archive].VsResNet > byKind[scenario.InferOnly].VsResNet {
		t.Fatalf("ARCHIVE speedup %.1f exceeds INFER_ONLY %.1f",
			byKind[scenario.Archive].VsResNet, byKind[scenario.InferOnly].VsResNet)
	}

	rows7, err := s.Figure7(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows7) != 4 {
		t.Fatalf("Figure 7 rows: %d", len(rows7))
	}
	for _, r := range rows7 {
		if r.TahomaThroughput < r.ResNetThroughput {
			t.Fatalf("%s: fastest cascade (%f) slower than the reference (%f)",
				r.Scenario, r.TahomaThroughput, r.ResNetThroughput)
		}
	}
}

func TestFigure9(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Figure9(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res) > 4 {
		t.Fatalf("panel count %d", len(res))
	}
	for _, r := range res {
		if r.Speedup < 1-1e-9 {
			t.Fatalf("%s: awareness speedup %.3f < 1", r.Predicate, r.Speedup)
		}
	}
}

func TestTableIII(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	cells, err := s.TableIII(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 { // 3 scenarios × 4 loss levels
		t.Fatalf("cell count %d", len(cells))
	}
	for _, c := range cells {
		if c.Aware+1e-9 < c.Oblivious {
			t.Fatalf("%s@%.0f%%: aware %.1f < oblivious %.1f — aware choice can never lose in its own scenario",
				c.Scenario, c.Loss*100, c.Aware, c.Oblivious)
		}
	}
}

func TestFigure10(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	rows, err := s.Figure10(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Config.Predicates) {
		t.Fatalf("row count %d", len(rows))
	}
	for _, r := range rows {
		// Full ⊇ each subset ⊇ None, so throughput must be monotone.
		if r.Full+1e-9 < r.Resize || r.Full+1e-9 < r.Color || r.Resize+1e-9 < r.None || r.Color+1e-9 < r.None {
			t.Fatalf("%s: ablation ordering violated: %+v", r.Predicate, r)
		}
		// The paper's headline: resizing matters far more than color.
		if r.Resize <= r.None {
			t.Fatalf("%s: resizing gave no gain (%f vs %f)", r.Predicate, r.Resize, r.None)
		}
	}
}

func TestFigure11(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	rows, err := s.Figure11(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("row count %d", len(rows))
	}
	// Deeper sets enumerate strictly more cascades and never shrink ALC.
	for i := 1; i < len(rows); i++ {
		if rows[i].Count <= rows[i-1].Count {
			t.Fatalf("depth %q count %d not greater than %q count %d",
				rows[i].Label, rows[i].Count, rows[i-1].Label, rows[i-1].Count)
		}
	}
	if rows[5].AvgThroughput+1e-9 < rows[0].AvgThroughput {
		t.Fatal("deepest set lost throughput versus shallowest")
	}
}

func TestFigure8(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	rows, err := s.Figure8(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("dataset count %d", len(rows))
	}
	var reef, junction Fig8Row
	for _, r := range rows {
		switch r.Dataset {
		case "reef":
			reef = r
		case "junction":
			junction = r
		}
		if r.NoScope.Throughput <= 0 || r.TahomaDD.Throughput <= 0 {
			t.Fatalf("%s: degenerate throughput: %+v", r.Dataset, r)
		}
	}
	// The calm stream must reuse more frames than the busy one for both
	// systems (the property Fig 8's asymmetry rests on).
	if reef.NoScope.ReusedFrac <= junction.NoScope.ReusedFrac {
		t.Fatalf("reef reuse %.2f <= junction reuse %.2f",
			reef.NoScope.ReusedFrac, junction.NoScope.ReusedFrac)
	}

	// Every figure of every row is pinned exactly, so a change to either
	// pipeline's labels or to its cost summation order is a deliberate diff.
	// Regenerate with:
	//
	//	go test ./internal/experiments -run TestFigure8 -update
	//
	// The trained models are bit-identical only per architecture; the golden
	// is produced and checked on the CI architecture (amd64).
	var got strings.Builder
	for _, r := range rows {
		for _, sys := range []struct {
			name string
			res  noscope.Result
		}{{"noscope", r.NoScope}, {"tahoma+dd", r.TahomaDD}} {
			fmt.Fprintf(&got, "%s %s frames=%d accuracy=%v throughput=%v reused=%v oracle=%v\n",
				r.Dataset, sys.name, sys.res.Frames, sys.res.Accuracy, sys.res.Throughput, sys.res.ReusedFrac, sys.res.OracleFrac)
		}
	}
	golden := filepath.Join("testdata", "fig8.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("Figure 8 drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}

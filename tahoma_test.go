package tahoma

import (
	"strings"
	"sync"
	"testing"
)

var (
	predOnce sync.Once
	pred     *Predicate
	predErr  error
)

func testPredicate(t *testing.T) *Predicate {
	t.Helper()
	predOnce.Do(func() {
		splits, err := GenerateCorpus("cloak", CorpusOptions{
			BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 60, Seed: 7,
		})
		if err != nil {
			predErr = err
			return
		}
		params := DefaultCostParams()
		params.SourceW, params.SourceH = 16, 16
		pred, predErr = InstallPredicate("cloak", splits, TinyConfig(), Camera, params)
	})
	if predErr != nil {
		t.Fatal(predErr)
	}
	return pred
}

func TestInstallAndChoose(t *testing.T) {
	p := testPredicate(t)
	if p.ModelCount() != 9 {
		t.Fatalf("model count %d", p.ModelCount())
	}
	if p.CascadeCount() == 0 {
		t.Fatal("no cascades evaluated")
	}
	front := p.Frontier()
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	desc := p.Describe(front[0])
	if !strings.Contains(desc, "@") {
		t.Fatalf("Describe = %q", desc)
	}
	if got := p.Describe(Point{Index: -1}); !strings.Contains(got, "invalid") {
		t.Fatal("invalid index not reported")
	}

	clf, err := p.Choose(Constraints{MaxAccuracyLoss: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if clf.Expected.Accuracy <= 0 || clf.Expected.Throughput <= 0 {
		t.Fatalf("degenerate expectation: %+v", clf.Expected)
	}
	if clf.String() == "" {
		t.Fatal("classifier has no description")
	}

	// Classify the evaluation images and compare with ground truth.
	splits, err := GenerateCorpus("cloak", CorpusOptions{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, e := range splits.Eval.Examples {
		got, err := clf.Classify(e.Image)
		if err != nil {
			t.Fatal(err)
		}
		if got == e.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(splits.Eval.Examples))
	// Real execution should land near the evaluator's estimate (identical
	// eval set, identical models).
	if diff := acc - clf.Expected.Accuracy; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("real accuracy %.4f != expected %.4f", acc, clf.Expected.Accuracy)
	}
}

// TestClassifyBatchMatchesClassify: the public batch APIs agree with
// per-image Classify at every engine sizing and report real work.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	p := testPredicate(t)
	clf, err := p.Choose(Constraints{MaxAccuracyLoss: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	splits, err := GenerateCorpus("cloak", CorpusOptions{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ims []*Image
	for _, e := range splits.Eval.Examples {
		ims = append(ims, e.Image)
	}
	want := make([]bool, len(ims))
	for i, im := range ims {
		want[i], err = clf.Classify(im)
		if err != nil {
			t.Fatal(err)
		}
	}

	got, err := clf.ClassifyBatch(ims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ims {
		if got[i] != want[i] {
			t.Fatalf("batch label %d = %v, Classify = %v", i, got[i], want[i])
		}
	}

	rep, err := clf.ClassifyBatchReport(ims, ExecOptions{Workers: 3, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != len(ims) || rep.LevelsRun < len(ims) || rep.Throughput <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	for i := range ims {
		if rep.Labels[i] != want[i] {
			t.Fatalf("report label %d = %v, Classify = %v", i, rep.Labels[i], want[i])
		}
	}
}

func TestReprice(t *testing.T) {
	p := testPredicate(t)
	params := DefaultCostParams()
	params.SourceW, params.SourceH = 16, 16
	inferOnly, err := p.Reprice(InferOnly, params)
	if err != nil {
		t.Fatal(err)
	}
	// Throughputs under INFER_ONLY are never lower than under CAMERA for
	// the same cascade set's fastest point.
	fast := func(pr *Predicate) float64 {
		best := 0.0
		for _, pt := range pr.Frontier() {
			if pt.Throughput > best {
				best = pt.Throughput
			}
		}
		return best
	}
	if fast(inferOnly) < fast(p) {
		t.Fatalf("INFER_ONLY fastest %.0f < CAMERA fastest %.0f", fast(inferOnly), fast(p))
	}
}

func TestChooseUnsatisfiable(t *testing.T) {
	p := testPredicate(t)
	if _, err := p.Choose(Constraints{MinThroughput: 1e18}); err == nil {
		t.Fatal("unreachable constraint must error")
	}
}

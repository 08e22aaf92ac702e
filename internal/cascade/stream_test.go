package cascade

import (
	"testing"

	"tahoma/internal/pareto"
	"tahoma/internal/scenario"
)

// TestEvaluateFrontierMatchesMaterialized: the streaming frontier must equal
// the frontier computed from fully materialized results, for any batch size
// (including batches smaller than the frontier itself).
func TestEvaluateFrontierMatchesMaterialized(t *testing.T) {
	f := newFixture(t, 23, 6, 2, 200)
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ct := f.ev.CompileCosts(cm)
	opts := BuildOptions{
		LevelModels: []int{0, 1, 2, 3, 4},
		FinalModels: []int{0, 1, 2, 3, 4, 5},
		NumThresh:   2,
		MaxDepth:    2,
	}

	specs, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	results := f.ev.EvaluateAll(specs, ct, 0)
	pts := make([]pareto.Point, len(results))
	minAcc, maxAcc := 2.0, -1.0
	for i, r := range results {
		pts[i] = pareto.Point{Throughput: r.Throughput, Accuracy: r.Accuracy, Index: i}
		if r.Accuracy < minAcc {
			minAcc = r.Accuracy
		}
		if r.Accuracy > maxAcc {
			maxAcc = r.Accuracy
		}
	}
	want := pareto.Frontier(pts)

	for _, batch := range []int{1, 7, 64, 100000} {
		stats, err := f.ev.evaluateFrontier(opts, ct, batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Total != len(specs) {
			t.Fatalf("batch %d: total %d, want %d", batch, stats.Total, len(specs))
		}
		if stats.MinAcc != minAcc || stats.MaxAcc != maxAcc {
			t.Fatalf("batch %d: accuracy range [%v,%v], want [%v,%v]",
				batch, stats.MinAcc, stats.MaxAcc, minAcc, maxAcc)
		}
		if len(stats.Points) != len(want) {
			t.Fatalf("batch %d: frontier size %d, want %d", batch, len(stats.Points), len(want))
		}
		for i := range want {
			if stats.Points[i].Throughput != want[i].Throughput ||
				stats.Points[i].Accuracy != want[i].Accuracy {
				t.Fatalf("batch %d: frontier[%d] = %+v, want %+v",
					batch, i, stats.Points[i], want[i])
			}
		}
		// Frontier results must carry the matching specs: re-evaluating
		// each must reproduce its own numbers.
		scratch := f.ev.NewScratch()
		for i, r := range stats.Frontier {
			re := f.ev.Evaluate(r.Spec, ct, scratch)
			if re.Accuracy != r.Accuracy || re.Throughput != r.Throughput {
				t.Fatalf("batch %d: frontier result %d does not reproduce", batch, i)
			}
		}
	}
}

func TestEvaluateFrontierPropagatesBuildErrors(t *testing.T) {
	f := newFixture(t, 29, 3, 2, 64)
	cm, _ := scenario.NewAnalytic(scenario.InferOnly, scenario.DefaultParams())
	ct := f.ev.CompileCosts(cm)
	bad := BuildOptions{MaxDepth: 1} // no final models
	if _, err := f.ev.EvaluateFrontier(bad, ct, 1); err == nil {
		t.Fatal("invalid build options must error")
	}
}

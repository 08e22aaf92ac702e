package experiments

import (
	"fmt"
	"io"
	"time"

	"tahoma/internal/cascade"
	"tahoma/internal/pareto"
	"tahoma/internal/scenario"
)

// TableII prints the predicate roster (the paper's randomly selected
// ImageNet categories; here the synthetic analogues).
func (s *Suite) TableII(w io.Writer) {
	fmt.Fprintf(w, "\n== Table II: binary predicates ==\n")
	fmt.Fprintf(w, "%-4s %-12s %-10s %7s %7s %7s\n", "#", "predicate", "kind", "train", "config", "eval")
	for i, name := range s.Config.Predicates {
		sp := s.Splits[i]
		kind := ""
		for _, c := range categoriesCache() {
			if c.Name == name {
				kind = c.Kind
			}
		}
		fmt.Fprintf(w, "%-4d %-12s %-10s %7d %7d %7d\n",
			i+1, name, kind, sp.Train.Len(), sp.Config.Len(), sp.Eval.Len())
	}
}

// Fig4Result carries Figure 4's two curves for one predicate.
type Fig4Result struct {
	Predicate        string
	Total            int
	Frontier         []pareto.Point // frontier under the deployment scenario
	InferOnlyChoices []pareto.Point // INFER_ONLY-optimal cascades re-priced in-scenario
	SpeedupAwareness float64        // ALC(frontier)/ALC(inferOnlyChoices) in-scenario
}

// Figure4 reproduces the cascade cloud and the two frontiers: the true
// Pareto frontier under a deployment scenario (CAMERA) versus the cascades
// an inference-only optimizer would have picked, re-priced with real data
// handling costs.
func (s *Suite) Figure4(w io.Writer) (Fig4Result, error) {
	const predIdx = 0
	res := Fig4Result{Predicate: s.Config.Predicates[predIdx]}

	camera, err := s.evaluate(predIdx, scenario.Camera)
	if err != nil {
		return res, err
	}
	inferOnly, err := s.evaluate(predIdx, scenario.InferOnly)
	if err != nil {
		return res, err
	}
	res.Total = len(camera.results)
	res.Frontier = camera.frontier

	// Re-price the INFER_ONLY frontier's cascades under CAMERA: same specs,
	// in-scenario throughputs (they are generally no longer non-dominated).
	for _, p := range inferOnly.frontier {
		r := camera.results[p.Index]
		res.InferOnlyChoices = append(res.InferOnlyChoices,
			pareto.Point{Throughput: r.Throughput, Accuracy: r.Accuracy, Index: p.Index})
	}
	lo, hi := pareto.AccuracyRange(res.Frontier)
	res.SpeedupAwareness = pareto.Speedup(res.Frontier, res.InferOnlyChoices, lo, hi)

	fmt.Fprintf(w, "\n== Figure 4: cascade space and frontiers (%s, CAMERA) ==\n", res.Predicate)
	fmt.Fprintf(w, "cascades evaluated: %d; frontier size: %d\n", res.Total, len(res.Frontier))
	fmt.Fprintf(w, "%-28s %12s %10s\n", "series", "thru (img/s)", "accuracy")
	printSeries(w, "frontier(CAMERA)", res.Frontier)
	printSeries(w, "inferOnly-chosen@CAMERA", res.InferOnlyChoices)
	fmt.Fprintf(w, "scenario-awareness ALC speedup: %.2fx\n", res.SpeedupAwareness)
	return res, nil
}

// Fig5Result carries Figure 5's design-space comparison.
type Fig5Result struct {
	Predicate        string
	TahomaCount      int
	BaselineCount    int
	TahomaFrontier   []pareto.Point
	BaselineFrontier []pareto.Point
	ALCSpeedup       float64 // TAHOMA vs Baseline over the baseline accuracy range
}

// Figure5 compares TAHOMA's cascade space against the Baseline cascades
// (full-resolution color inputs, expensive terminator) on the komondor
// analogue under CAMERA.
func (s *Suite) Figure5(w io.Writer) (Fig5Result, error) {
	predIdx := s.predicateIndex("komondor", 0)
	res := Fig5Result{Predicate: s.Config.Predicates[predIdx]}

	tahoma, err := s.evaluate(predIdx, scenario.Camera)
	if err != nil {
		return res, err
	}
	baseline, err := s.evaluateOptions(predIdx, s.baselineOptions(predIdx), scenario.Camera)
	if err != nil {
		return res, err
	}
	res.TahomaCount = len(tahoma.results)
	res.BaselineCount = len(baseline.results)
	res.TahomaFrontier = tahoma.frontier
	res.BaselineFrontier = baseline.frontier

	lo, hi := pareto.AccuracyRange(baseline.points)
	res.ALCSpeedup = pareto.Speedup(res.TahomaFrontier, res.BaselineFrontier, lo, hi)

	fmt.Fprintf(w, "\n== Figure 5: TAHOMA vs Baseline design space (%s, CAMERA) ==\n", res.Predicate)
	fmt.Fprintf(w, "TAHOMA cascades: %d; Baseline cascades: %d\n", res.TahomaCount, res.BaselineCount)
	printSeries(w, "TAHOMA frontier", res.TahomaFrontier)
	printSeries(w, "Baseline frontier", res.BaselineFrontier)
	fmt.Fprintf(w, "ALC speedup over Baseline range: %.2fx\n", res.ALCSpeedup)
	return res, nil
}

// Fig6Row is one scenario's speedup triple in Figure 6.
type Fig6Row struct {
	Scenario        scenario.Kind
	VsResNet        float64 // optimal cascade at ≥ reference accuracy vs reference
	VsBaselineFast  float64 // optimal cascade at ≥ fastest-baseline accuracy vs it
	VsBaselineRange float64 // ALC ratio over the baseline accuracy range
}

// Figure6 computes TAHOMA's average speedups over the reference classifier
// and the Baseline cascades across the four deployment scenarios.
func (s *Suite) Figure6(w io.Writer) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, kind := range scenario.AllKinds {
		var sumResNet, sumFast, sumRange float64
		n := 0
		for i := range s.Systems {
			ev, err := s.evaluate(i, kind)
			if err != nil {
				return nil, err
			}
			base, err := s.evaluateOptions(i, s.baselineOptions(i), kind)
			if err != nil {
				return nil, err
			}
			deep := s.deepResult(i, kind)

			// vs ResNet: the optimal cascade with accuracy >= reference's.
			if p, err := pareto.SelectAboveAccuracy(ev.frontier, deep.Accuracy); err == nil && deep.Throughput > 0 {
				sumResNet += p.Throughput / deep.Throughput
			}
			// vs fastest Baseline cascade.
			if fb, err := pareto.SelectFastest(base.points); err == nil {
				if p, err := pareto.SelectAboveAccuracy(ev.frontier, fb.Accuracy); err == nil && fb.Throughput > 0 {
					sumFast += p.Throughput / fb.Throughput
				}
			}
			// vs Baseline over its accuracy range.
			lo, hi := pareto.AccuracyRange(base.points)
			if sp := pareto.Speedup(ev.frontier, base.frontier, lo, hi); sp > 0 {
				sumRange += sp
			}
			n++
		}
		rows = append(rows, Fig6Row{
			Scenario:        kind,
			VsResNet:        sumResNet / float64(n),
			VsBaselineFast:  sumFast / float64(n),
			VsBaselineRange: sumRange / float64(n),
		})
	}
	fmt.Fprintf(w, "\n== Figure 6: average TAHOMA speedups (%d predicates) ==\n", len(s.Systems))
	fmt.Fprintf(w, "%-12s %12s %18s %18s\n", "scenario", "vs ResNet", "vs Baseline(fast)", "vs Baseline(avg)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %11.1fx %17.1fx %17.1fx\n",
			r.Scenario, r.VsResNet, r.VsBaselineFast, r.VsBaselineRange)
	}
	return rows, nil
}

// Fig7Row is one scenario's fastest-cascade numbers in Figure 7.
type Fig7Row struct {
	Scenario         scenario.Kind
	ResNetThroughput float64 // avg across predicates
	TahomaThroughput float64 // avg fastest optimal cascade
	AccuracyDrop     float64 // avg accuracy sacrificed vs the reference
}

// Figure7 reports the throughput of each predicate's fastest Pareto-optimal
// cascade against the reference classifier, averaged across predicates.
func (s *Suite) Figure7(w io.Writer) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, kind := range scenario.AllKinds {
		var sumDeep, sumFast, sumDrop float64
		for i := range s.Systems {
			ev, err := s.evaluate(i, kind)
			if err != nil {
				return nil, err
			}
			deep := s.deepResult(i, kind)
			fast, err := pareto.SelectFastest(ev.frontier)
			if err != nil {
				return nil, err
			}
			sumDeep += deep.Throughput
			sumFast += fast.Throughput
			sumDrop += deep.Accuracy - fast.Accuracy
		}
		n := float64(len(s.Systems))
		rows = append(rows, Fig7Row{
			Scenario:         kind,
			ResNetThroughput: sumDeep / n,
			TahomaThroughput: sumFast / n,
			AccuracyDrop:     sumDrop / n,
		})
	}
	fmt.Fprintf(w, "\n== Figure 7: fastest cascade throughput vs reference classifier ==\n")
	fmt.Fprintf(w, "%-12s %16s %16s %10s %12s\n", "scenario", "ResNet (img/s)", "TAHOMA (img/s)", "speedup", "acc. drop")
	for _, r := range rows {
		speedup := 0.0
		if r.ResNetThroughput > 0 {
			speedup = r.TahomaThroughput / r.ResNetThroughput
		}
		fmt.Fprintf(w, "%-12s %16.0f %16.0f %9.0fx %11.3f\n",
			r.Scenario, r.ResNetThroughput, r.TahomaThroughput, speedup, r.AccuracyDrop)
	}
	return rows, nil
}

// Fig9Result carries one predicate's Figure 9 panel.
type Fig9Result struct {
	Predicate        string
	Frontier         []pareto.Point // CAMERA-aware frontier
	InferOnlyChoices []pareto.Point // INFER_ONLY choices re-priced under CAMERA
	Speedup          float64
}

// Figure9 reproduces the per-predicate panels: the CAMERA frontier versus
// the cascades that looked optimal when only inference was priced.
func (s *Suite) Figure9(w io.Writer) ([]Fig9Result, error) {
	panels := s.figure9Predicates()
	var out []Fig9Result
	fmt.Fprintf(w, "\n== Figure 9: scenario awareness per predicate (CAMERA vs INFER_ONLY-chosen) ==\n")
	for _, idx := range panels {
		camera, err := s.evaluate(idx, scenario.Camera)
		if err != nil {
			return nil, err
		}
		inferOnly, err := s.evaluate(idx, scenario.InferOnly)
		if err != nil {
			return nil, err
		}
		var chosen []pareto.Point
		for _, p := range inferOnly.frontier {
			r := camera.results[p.Index]
			chosen = append(chosen, pareto.Point{Throughput: r.Throughput, Accuracy: r.Accuracy, Index: p.Index})
		}
		lo, hi := pareto.AccuracyRange(camera.frontier)
		res := Fig9Result{
			Predicate:        s.Config.Predicates[idx],
			Frontier:         camera.frontier,
			InferOnlyChoices: chosen,
			Speedup:          pareto.Speedup(camera.frontier, chosen, lo, hi),
		}
		out = append(out, res)
		fmt.Fprintf(w, "-- %s --\n", res.Predicate)
		printSeries(w, "CAMERA frontier", res.Frontier)
		printSeries(w, "inferOnly-chosen", res.InferOnlyChoices)
		fmt.Fprintf(w, "awareness ALC speedup: %.2fx\n", res.Speedup)
	}
	return out, nil
}

// figure9Predicates picks up to four panels, preferring the paper's
// (amphibian, fence, scorpion, wallet) when present.
func (s *Suite) figure9Predicates() []int {
	want := []string{"amphibian", "fence", "scorpion", "wallet"}
	var out []int
	for _, name := range want {
		if idx := s.predicateIndex(name, -1); idx >= 0 {
			out = append(out, idx)
		}
	}
	for i := range s.Config.Predicates {
		if len(out) >= 4 {
			break
		}
		dup := false
		for _, j := range out {
			if j == i {
				dup = true
			}
		}
		if !dup {
			out = append(out, i)
		}
	}
	return out
}

// Fig11Row summarizes one cascade-depth configuration.
type Fig11Row struct {
	Label         string
	Count         int
	FrontierSize  int
	AvgThroughput float64 // ALC-normalized over the depth-1 accuracy range
	EvalDuration  time.Duration
}

// Figure11 studies frontier evolution with cascade depth on the fence
// analogue under CAMERA: 1/2/3 levels, each with and without the deep
// terminator. Deeper sets enumerate combinatorially; evaluation streams so
// memory stays bounded.
func (s *Suite) Figure11(w io.Writer) ([]Fig11Row, error) {
	predIdx := s.predicateIndex("fence", 0)
	sys := s.Systems[predIdx]
	ct := sys.Evaluator.CompileCosts(s.costModel(scenario.Camera))

	var basic []int
	for i := range sys.Models {
		if i != sys.DeepIdx {
			basic = append(basic, i)
		}
	}
	nThresh := len(sys.Config.PrecisionTargets)

	type variant struct {
		label string
		opts  cascade.BuildOptions
	}
	mk := func(depth int, deep bool) cascade.BuildOptions {
		o := cascade.BuildOptions{
			LevelModels: basic,
			FinalModels: basic,
			NumThresh:   nThresh,
			MaxDepth:    depth,
		}
		if deep {
			o.AppendDeep = true
			o.DeepModel = sys.DeepIdx
		}
		return o
	}
	variants := []variant{
		{"1 level", mk(1, false)},
		{"1 level + Deep", mk(1, true)},
		{"2 level", mk(2, false)},
		{"2 level + Deep", mk(2, true)},
		{"3 level", mk(3, false)},
		{"3 level + Deep", mk(3, true)},
	}

	// Common accuracy range: the depth-1 set's range keeps rows comparable.
	shallow, err := s.evaluateOptions(predIdx, variants[0].opts, scenario.Camera)
	if err != nil {
		return nil, err
	}
	lo, hi := pareto.AccuracyRange(shallow.points)

	var rows []Fig11Row
	fmt.Fprintf(w, "\n== Figure 11: frontier vs cascade depth (%s, CAMERA) ==\n", s.Config.Predicates[predIdx])
	fmt.Fprintf(w, "%-16s %12s %9s %14s %12s\n", "depth", "cascades", "frontier", "avg thru", "eval time")
	for _, v := range variants {
		start := time.Now()
		stats, err := sys.Evaluator.EvaluateFrontier(v.opts, ct, s.Config.Workers)
		if err != nil {
			return nil, err
		}
		row := Fig11Row{
			Label:         v.label,
			Count:         stats.Total,
			FrontierSize:  len(stats.Points),
			AvgThroughput: pareto.AvgThroughput(stats.Points, lo, hi),
			EvalDuration:  time.Since(start),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-16s %12d %9d %14.0f %12s\n",
			row.Label, row.Count, row.FrontierSize, row.AvgThroughput, row.EvalDuration.Round(time.Millisecond))
	}
	return rows, nil
}

func (s *Suite) predicateIndex(name string, fallback int) int {
	for i, p := range s.Config.Predicates {
		if p == name {
			return i
		}
	}
	return fallback
}

// printSeries prints up to 12 evenly spaced points of a series.
func printSeries(w io.Writer, label string, pts []pareto.Point) {
	const maxRows = 12
	step := 1
	if len(pts) > maxRows {
		step = (len(pts) + maxRows - 1) / maxRows
	}
	for i := 0; i < len(pts); i += step {
		fmt.Fprintf(w, "%-28s %12.0f %10.3f\n", label, pts[i].Throughput, pts[i].Accuracy)
	}
}

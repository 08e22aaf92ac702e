package cascade

import "tahoma/internal/pareto"

// FrontierStats summarizes a streamed evaluation of a cascade set.
type FrontierStats struct {
	Total    int            // cascades evaluated
	Frontier []Result       // the Pareto-optimal results
	Points   []pareto.Point // frontier points (Index = position in Frontier)
	MinAcc   float64
	MaxAcc   float64
}

// EvaluateFrontier enumerates and evaluates a cascade set without
// materializing it, maintaining only the running Pareto frontier. This makes
// the full three-level cross products of Section VII-F tractable: memory is
// bounded by the frontier size, not the (potentially tens of millions)
// cascade count. Results accumulate 65 536 at a time between frontier
// prunes; workers parallelizes evaluation within each batch.
func (e *Evaluator) EvaluateFrontier(opts BuildOptions, ct *CostTable, workers int) (FrontierStats, error) {
	return e.evaluateFrontier(opts, ct, 1<<16, workers)
}

// evaluateFrontier is EvaluateFrontier pruning every batch results.
func (e *Evaluator) evaluateFrontier(opts BuildOptions, ct *CostTable, batch, workers int) (FrontierStats, error) {
	stats := FrontierStats{MinAcc: 2, MaxAcc: -1}

	// Current frontier results plus the incoming batch.
	var frontier []Result
	specs := make([]Spec, 0, batch)

	flush := func() {
		if len(specs) == 0 {
			return
		}
		results := e.EvaluateAll(specs, ct, workers)
		for _, r := range results {
			if r.Accuracy < stats.MinAcc {
				stats.MinAcc = r.Accuracy
			}
			if r.Accuracy > stats.MaxAcc {
				stats.MaxAcc = r.Accuracy
			}
		}
		merged := append(frontier, results...)
		pts := make([]pareto.Point, len(merged))
		for i, r := range merged {
			pts[i] = pareto.Point{Throughput: r.Throughput, Accuracy: r.Accuracy, Index: i}
		}
		front := pareto.Frontier(pts)
		next := make([]Result, len(front))
		for i, p := range front {
			next[i] = merged[p.Index]
		}
		frontier = next
		specs = specs[:0]
	}

	err := ForEach(opts, func(s Spec) {
		specs = append(specs, s)
		stats.Total++
		if len(specs) >= batch {
			flush()
		}
	})
	if err != nil {
		return FrontierStats{}, err
	}
	flush()

	stats.Frontier = frontier
	stats.Points = make([]pareto.Point, len(frontier))
	for i, r := range frontier {
		stats.Points[i] = pareto.Point{Throughput: r.Throughput, Accuracy: r.Accuracy, Index: i}
	}
	return stats, nil
}

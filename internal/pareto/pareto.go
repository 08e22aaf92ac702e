// Package pareto implements TAHOMA's cascade-set evaluation machinery
// (Sections V-E and VII-A): the O(n log n) Pareto frontier over
// (throughput, accuracy), the area-to-the-left-of-the-curve (ALC) metric
// used to compare cascade sets, speedup ratios, and the query-time cascade
// selector that applies the user's accuracy/throughput constraints.
package pareto

import (
	"fmt"
	"sort"
)

// Point is one cascade positioned in the accuracy/throughput plane. Index
// refers back to the caller's result set.
type Point struct {
	Throughput float64
	Accuracy   float64
	Index      int
}

// Frontier returns the Pareto-optimal subset: points not dominated in
// (throughput, accuracy) by any other point. The result is sorted by
// ascending throughput (hence non-increasing accuracy). Runs in O(n log n)
// (Kung/Luccio/Preparata for two attributes reduces to a sort and sweep).
func Frontier(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	// Sort by throughput descending; ties by accuracy descending so the
	// best-at-that-throughput comes first.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Throughput != sorted[j].Throughput {
			return sorted[i].Throughput > sorted[j].Throughput
		}
		return sorted[i].Accuracy > sorted[j].Accuracy
	})
	var out []Point
	bestAcc := -1.0
	lastThru := 0.0
	for _, p := range sorted {
		if p.Accuracy > bestAcc {
			// Equal-throughput duplicates: the first (highest accuracy)
			// wins; later ones are dominated.
			if len(out) > 0 && p.Throughput == lastThru {
				continue
			}
			out = append(out, p)
			bestAcc = p.Accuracy
			lastThru = p.Throughput
		}
	}
	// Reverse into ascending-throughput order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// AccuracyRange returns the [min, max] accuracy across points.
func AccuracyRange(points []Point) (lo, hi float64) {
	if len(points) == 0 {
		return 0, 0
	}
	lo, hi = points[0].Accuracy, points[0].Accuracy
	for _, p := range points[1:] {
		if p.Accuracy < lo {
			lo = p.Accuracy
		}
		if p.Accuracy > hi {
			hi = p.Accuracy
		}
	}
	return lo, hi
}

// ALC computes the area to the left of the step curve formed by points on an
// accuracy-vs-throughput plot, over the accuracy interval [lo, hi]
// (Section VII-A). The curve is x(y) = max{throughput of p : p.Accuracy >= y},
// interpolated as a step function; accuracies no point reaches contribute
// zero. The points need not form a strict frontier — the paper evaluates a
// frontier chosen under one cost model in another model's cost context, where
// it is no longer non-dominated.
func ALC(points []Point, lo, hi float64) float64 {
	if hi <= lo || len(points) == 0 {
		return 0
	}
	// Best throughput at-or-above each accuracy: sort by accuracy
	// descending and record the running max throughput.
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Accuracy > sorted[j].Accuracy })
	type step struct{ acc, thru float64 }
	var steps []step // descending accuracy, increasing thru
	best := 0.0
	for _, p := range sorted {
		if p.Throughput > best {
			best = p.Throughput
			steps = append(steps, step{p.Accuracy, best})
		}
	}
	// Integrate x(y) dy over [lo, hi]. For y in (steps[i+1].acc, steps[i].acc]
	// the value is steps[i].thru... walk segments from the top.
	area := 0.0
	upper := hi
	for i := 0; i < len(steps) && upper > lo; i++ {
		segTop := steps[i].acc
		if segTop > upper {
			segTop = upper
		}
		var segBot float64
		if i+1 < len(steps) {
			segBot = steps[i+1].acc
		} else {
			segBot = lo
		}
		if segBot < lo {
			segBot = lo
		}
		if segTop > segBot {
			area += steps[i].thru * (segTop - segBot)
			upper = segBot
		}
	}
	return area
}

// AvgThroughput is ALC normalized by the accuracy range: the paper's
// "average throughput for cascades in the Pareto frontier".
func AvgThroughput(points []Point, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return ALC(points, lo, hi) / (hi - lo)
}

// Speedup returns ALC(a)/ALC(b) over [lo, hi]: how much faster cascade set a
// is than b across the accuracy range.
func Speedup(a, b []Point, lo, hi float64) float64 {
	den := ALC(b, lo, hi)
	if den == 0 {
		return 0
	}
	return ALC(a, lo, hi) / den
}

// SelectMostAccurate returns the point with the highest accuracy (ties:
// higher throughput).
func SelectMostAccurate(points []Point) (Point, error) {
	if len(points) == 0 {
		return Point{}, fmt.Errorf("pareto: empty point set")
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.Accuracy > best.Accuracy || (p.Accuracy == best.Accuracy && p.Throughput > best.Throughput) {
			best = p
		}
	}
	return best, nil
}

// SelectFastest returns the point with the highest throughput (ties: higher
// accuracy).
func SelectFastest(points []Point) (Point, error) {
	if len(points) == 0 {
		return Point{}, fmt.Errorf("pareto: empty point set")
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.Throughput > best.Throughput || (p.Throughput == best.Throughput && p.Accuracy > best.Accuracy) {
			best = p
		}
	}
	return best, nil
}

// SelectByAccuracyLoss implements the paper's Uacc constraint: among points
// whose accuracy is at least (1-loss) × the best accuracy available, return
// the one with the highest throughput. loss=0.05 tolerates a 5% relative
// accuracy drop for speed.
func SelectByAccuracyLoss(points []Point, loss float64) (Point, error) {
	if len(points) == 0 {
		return Point{}, fmt.Errorf("pareto: empty point set")
	}
	if loss < 0 || loss >= 1 {
		return Point{}, fmt.Errorf("pareto: accuracy loss %v out of [0,1)", loss)
	}
	top, _ := SelectMostAccurate(points)
	floor := top.Accuracy * (1 - loss)
	best := Point{Throughput: -1}
	for _, p := range points {
		if p.Accuracy >= floor && p.Throughput > best.Throughput {
			best = p
		}
	}
	if best.Throughput < 0 {
		return Point{}, fmt.Errorf("pareto: no point meets accuracy floor %.4f", floor)
	}
	return best, nil
}

// SelectAboveAccuracy returns the fastest point whose accuracy is >= floor
// (used when comparing against a single classifier: "the optimal cascade
// whose accuracy is both higher and closest to" the reference, Section
// VII-A). Among qualifying points it returns the fastest; on a Pareto
// frontier that is exactly the one closest above the floor.
func SelectAboveAccuracy(points []Point, floor float64) (Point, error) {
	best := Point{Throughput: -1}
	for _, p := range points {
		if p.Accuracy >= floor && p.Throughput > best.Throughput {
			best = p
		}
	}
	if best.Throughput < 0 {
		return Point{}, fmt.Errorf("pareto: no point at or above accuracy %.4f", floor)
	}
	return best, nil
}

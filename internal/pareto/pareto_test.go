package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func dominates(a, b Point) bool {
	return a.Throughput >= b.Throughput && a.Accuracy >= b.Accuracy &&
		(a.Throughput > b.Throughput || a.Accuracy > b.Accuracy)
}

func randPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Throughput: rng.Float64() * 1000,
			Accuracy:   0.5 + rng.Float64()*0.5,
			Index:      i,
		}
	}
	return pts
}

// TestFrontierProperties: (1) no frontier point is dominated by any input
// point; (2) every non-frontier point is dominated by some frontier point;
// (3) the frontier is sorted by ascending throughput.
func TestFrontierProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, 1+rng.Intn(100))
		front := Frontier(pts)
		if len(front) == 0 {
			return false
		}
		onFront := make(map[int]bool)
		for _, p := range front {
			onFront[p.Index] = true
		}
		for i := 1; i < len(front); i++ {
			if front[i-1].Throughput >= front[i].Throughput {
				return false // must strictly increase
			}
			if front[i-1].Accuracy <= front[i].Accuracy {
				return false // accuracy must strictly decrease along it
			}
		}
		for _, p := range front {
			for _, q := range pts {
				if dominates(q, p) {
					return false
				}
			}
		}
		for _, q := range pts {
			if onFront[q.Index] {
				continue
			}
			dominated := false
			for _, p := range front {
				if dominates(p, q) || (p.Throughput == q.Throughput && p.Accuracy == q.Accuracy) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierDegenerateCases(t *testing.T) {
	if Frontier(nil) != nil {
		t.Fatal("empty input should give empty frontier")
	}
	one := []Point{{Throughput: 5, Accuracy: 0.9, Index: 0}}
	front := Frontier(one)
	if len(front) != 1 || front[0].Index != 0 {
		t.Fatal("single point must be its own frontier")
	}
	// Identical points collapse to one.
	same := []Point{{10, 0.8, 0}, {10, 0.8, 1}, {10, 0.8, 2}}
	if got := Frontier(same); len(got) != 1 {
		t.Fatalf("identical points gave frontier of %d", len(got))
	}
}

func TestALCHandComputed(t *testing.T) {
	// Two points: (thru=100, acc=0.9), (thru=400, acc=0.6).
	// For y in (0.6, 0.9]: x = 100. For y <= 0.6: x = 400.
	pts := []Point{{100, 0.9, 0}, {400, 0.6, 1}}
	got := ALC(pts, 0.5, 0.9)
	want := 100*(0.9-0.6) + 400*(0.6-0.5)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ALC = %v, want %v", got, want)
	}
	// Range above all points contributes zero.
	got = ALC(pts, 0.5, 1.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ALC with unreachable top = %v, want %v", got, want)
	}
	// Sub-range entirely inside one step.
	got = ALC(pts, 0.7, 0.8)
	if math.Abs(got-100*0.1) > 1e-9 {
		t.Fatalf("ALC sub-range = %v, want 10", got)
	}
	// Degenerate range.
	if ALC(pts, 0.9, 0.9) != 0 || ALC(nil, 0, 1) != 0 {
		t.Fatal("degenerate ALC should be 0")
	}
}

// TestALCBounds: lo*range <= ALC <= hi*range where lo/hi are the min/max
// throughput, whenever the accuracy range is fully covered by the points.
func TestALCBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, 2+rng.Intn(50))
		accLo, accHi := AccuracyRange(pts)
		if accHi <= accLo {
			return true
		}
		area := ALC(pts, accLo, accHi)
		maxT := 0.0
		for _, p := range pts {
			if p.Throughput > maxT {
				maxT = p.Throughput
			}
		}
		return area >= 0 && area <= maxT*(accHi-accLo)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestALCFrontierEqualsFullSet: the frontier carries all of the set's ALC
// (dominated points never contribute area).
func TestALCFrontierEqualsFullSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(rng, 1+rng.Intn(80))
		lo, hi := AccuracyRange(pts)
		if hi <= lo {
			return true
		}
		a := ALC(pts, lo, hi)
		b := ALC(Frontier(pts), lo, hi)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgThroughputAndSpeedup(t *testing.T) {
	a := []Point{{200, 0.9, 0}}
	b := []Point{{100, 0.9, 0}}
	if got := AvgThroughput(a, 0.8, 0.9); math.Abs(got-200) > 1e-9 {
		t.Fatalf("AvgThroughput = %v", got)
	}
	if got := Speedup(a, b, 0.8, 0.9); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Speedup = %v", got)
	}
	if Speedup(a, nil, 0.8, 0.9) != 0 {
		t.Fatal("speedup against empty set should be 0")
	}
}

func TestSelectors(t *testing.T) {
	pts := []Point{
		{Throughput: 1000, Accuracy: 0.70, Index: 0},
		{Throughput: 400, Accuracy: 0.85, Index: 1},
		{Throughput: 100, Accuracy: 0.95, Index: 2},
	}
	if p, _ := SelectMostAccurate(pts); p.Index != 2 {
		t.Fatalf("most accurate = %d", p.Index)
	}
	if p, _ := SelectFastest(pts); p.Index != 0 {
		t.Fatalf("fastest = %d", p.Index)
	}
	// 5% loss from 0.95 → floor 0.9025: only point 2 qualifies.
	if p, _ := SelectByAccuracyLoss(pts, 0.05); p.Index != 2 {
		t.Fatalf("5%% loss = %d", p.Index)
	}
	// 15% loss → floor 0.8075: points 1 and 2 qualify; fastest is 1.
	if p, _ := SelectByAccuracyLoss(pts, 0.15); p.Index != 1 {
		t.Fatalf("15%% loss = %d", p.Index)
	}
	// 0% loss → the most accurate itself.
	if p, _ := SelectByAccuracyLoss(pts, 0); p.Index != 2 {
		t.Fatalf("0%% loss = %d", p.Index)
	}
	if p, _ := SelectAboveAccuracy(pts, 0.80); p.Index != 1 {
		t.Fatalf("above accuracy 0.80 = %d", p.Index)
	}
	if _, err := SelectAboveAccuracy(pts, 0.99); err == nil {
		t.Fatal("unreachable accuracy floor must error")
	}
	if _, err := SelectMostAccurate(nil); err == nil {
		t.Fatal("empty set must error")
	}
	if _, err := SelectByAccuracyLoss(pts, -0.1); err == nil {
		t.Fatal("negative loss must error")
	}
}

// TestSelectByAccuracyLossMonotone: a larger tolerated loss never picks a
// slower cascade.
func TestSelectByAccuracyLossMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := Frontier(randPoints(rng, 2+rng.Intn(60)))
		prev := -1.0
		for _, loss := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
			p, err := SelectByAccuracyLoss(pts, loss)
			if err != nil {
				return false
			}
			if p.Throughput < prev {
				return false
			}
			prev = p.Throughput
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

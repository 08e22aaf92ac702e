package planner

import (
	"math"
	"strings"
	"testing"
)

// step builds a single-level test step.
func step(input int, key string, cost, sel float64) Step {
	return Step{
		Input: input, Key: key, CascadeID: key + "-c",
		BaseCost:    cost,
		Levels:      []LevelCost{{RepID: "r-" + key, RepCost: cost / 2, InferCost: cost / 2, Occupancy: 1}},
		Selectivity: sel,
		TotalRows:   100,
	}
}

func orderOf(p *Plan) []int {
	out := make([]int, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.Input
	}
	return out
}

func TestRankOrdering(t *testing.T) {
	// A is cheap but passes almost everything; B costs a bit more and
	// discards almost everything. Static runs A first; rank runs B first.
	steps := []Step{step(0, "a", 1e-3, 0.95), step(1, "b", 1.2e-3, 0.02)}
	static := PlanContent(steps, Availability{}, Options{Order: OrderStatic})
	if got := orderOf(static); got[0] != 0 || got[1] != 1 {
		t.Fatalf("static order %v, want [0 1]", got)
	}
	rank := PlanContent(steps, Availability{}, Options{Order: OrderRank})
	if got := orderOf(rank); got[0] != 1 || got[1] != 0 {
		t.Fatalf("rank order %v, want [1 0]", got)
	}
	// Rank of the selective step must be far below the non-selective one.
	if rank.Steps[0].Rank >= rank.Steps[1].Rank {
		t.Fatalf("ranks not ascending: %v then %v", rank.Steps[0].Rank, rank.Steps[1].Rank)
	}
}

func TestRankDiscountsCachedCoverage(t *testing.T) {
	// A fully materialized predicate is free filtering: it must rank first
	// even though its cascade is expensive and barely selective compared to
	// the uncached alternative.
	fresh := step(0, "fresh", 1e-3, 0.5)
	cached := step(1, "cached", 10e-3, 0.5)
	cached.CachedRows = cached.TotalRows
	p := PlanContent([]Step{fresh, cached}, Availability{}, Options{Order: OrderRank})
	if got := orderOf(p); got[0] != 1 {
		t.Fatalf("cached step not first: order %v (ranks %v, %v)", got, p.Steps[0].Rank, p.Steps[1].Rank)
	}
	if p.Steps[0].Rank != 0 {
		t.Fatalf("fully cached step has nonzero rank %v", p.Steps[0].Rank)
	}
}

func TestNegationFlipsPassRate(t *testing.T) {
	s := step(0, "a", 1e-3, 0.9)
	s.Negated = true
	p := PlanContent([]Step{s}, Availability{}, Options{})
	if got := p.Steps[0].PassRate; math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("negated pass rate %v, want 0.1", got)
	}
}

func TestPassRateClamped(t *testing.T) {
	for _, sel := range []float64{0, 1, -3, 7} {
		s := step(0, "a", 1e-3, sel)
		p := PlanContent([]Step{s}, Availability{}, Options{})
		ps := p.Steps[0]
		if ps.PassRate <= 0 || ps.PassRate >= 1 {
			t.Fatalf("sel %v: pass rate %v not in (0,1)", sel, ps.PassRate)
		}
		if math.IsInf(ps.Rank, 0) || math.IsNaN(ps.Rank) {
			t.Fatalf("sel %v: rank %v", sel, ps.Rank)
		}
	}
}

func TestTiesKeepTextualOrder(t *testing.T) {
	steps := []Step{step(0, "a", 1e-3, 0.5), step(1, "b", 1e-3, 0.5), step(2, "c", 1e-3, 0.5)}
	for _, o := range []Order{OrderRank, OrderStatic} {
		p := PlanContent(steps, Availability{}, Options{Order: o})
		if got := orderOf(p); got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("%v tie order %v, want [0 1 2]", o, got)
		}
	}
}

func TestRepAdjustedCost(t *testing.T) {
	s := Step{
		Input: 0, Key: "a", CascadeID: "a-c",
		BaseCost:   2e-3,
		SourceCost: 1e-3,
		Levels: []LevelCost{
			{RepID: "r0", RepCost: 1e-3, InferCost: 1e-4, Occupancy: 1},
			{RepID: "r1", RepCost: 2e-3, InferCost: 1e-4, Occupancy: 0.5},
		},
		Selectivity: 0.5, TotalRows: 100,
	}
	cold := PlanContent([]Step{s}, Availability{}, Options{})
	if cold.Steps[0].AdjCost != cold.Steps[0].FullCost {
		t.Fatalf("cold plan discounted: adj %v full %v", cold.Steps[0].AdjCost, cold.Steps[0].FullCost)
	}
	// A warm record cache holding every source record discounts the source
	// read; the transforms from the records' bytes are still paid.
	warm := PlanContent([]Step{s}, Availability{SourceResidentFrac: 1}, Options{})
	wantDrop := 1e-3 // SourceCost
	if got := warm.Steps[0].FullCost - warm.Steps[0].AdjCost; math.Abs(got-wantDrop) > 1e-12 {
		t.Fatalf("warm discount %v, want %v", got, wantDrop)
	}
	if warm.Steps[0].RepDiscount <= 0 {
		t.Fatal("warm plan reports no rep discount")
	}
	// A store serving every rep drops the source decode too.
	served := PlanContent([]Step{s}, Availability{Served: func(string) bool { return true }}, Options{})
	wantAdj := 1e-4 + 0.5*1e-4 // inference only
	if got := served.Steps[0].AdjCost; math.Abs(got-wantAdj) > 1e-12 {
		t.Fatalf("served adj cost %v, want %v", got, wantAdj)
	}
	if !strings.Contains(served.Steps[0].CostLine(), "rep-adjusted") {
		t.Fatalf("cost line hides the adjustment: %s", served.Steps[0].CostLine())
	}
	if strings.Contains(cold.Steps[0].CostLine(), "rep-adjusted") {
		t.Fatalf("cold cost line claims an adjustment: %s", cold.Steps[0].CostLine())
	}
}

func TestOrderLine(t *testing.T) {
	one := PlanContent([]Step{step(0, "a", 1e-3, 0.5)}, Availability{}, Options{})
	if one.OrderLine() != "" {
		t.Fatalf("single-step plan prints an order line: %q", one.OrderLine())
	}
	two := PlanContent([]Step{step(0, "a", 1e-3, 0.95), step(1, "b", 1.2e-3, 0.02)}, Availability{}, Options{})
	line := two.OrderLine()
	if !strings.Contains(line, "rank") || !strings.Contains(line, "b, a") {
		t.Fatalf("order line: %q", line)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if rate, n := c.Selectivity("ghost"); rate != 0.5 || n != 0 {
		t.Fatalf("unknown key: %v, %d", rate, n)
	}
	c.Seed("a", 0.8)
	if rate, n := c.Selectivity("a"); rate != 0.8 || n != 0 {
		t.Fatalf("seeded: %v, %d", rate, n)
	}
	// A large observation dominates the seed but the seed still acts as a
	// small prior: expect the exact batch-weighted EWMA step.
	c.Observe("a", 1000, 100)
	rate, n := c.Selectivity("a")
	if n != 1000 {
		t.Fatalf("samples %d, want 1000", n)
	}
	wantFirst := 0.8 + 1000.0/(1000+64)*(0.1-0.8)
	if math.Abs(rate-wantFirst) > 1e-9 {
		t.Fatalf("first observation folded wrong: %v, want %v", rate, wantFirst)
	}
	// Later observations move it smoothly, weighted by size.
	c.Observe("a", 64, 64)
	rate2, _ := c.Selectivity("a")
	if rate2 <= rate || rate2 >= 1 {
		t.Fatalf("EWMA did not move toward the observation: %v -> %v", rate, rate2)
	}
	// Tiny observations barely move it.
	before := rate2
	c.Observe("a", 1, 1)
	after, _ := c.Selectivity("a")
	if math.Abs(after-before) > 0.05 {
		t.Fatalf("1-frame observation moved the estimate %v -> %v", before, after)
	}
	// Zero-frame observations are ignored.
	c.Observe("a", 0, 0)
	if got, _ := c.Selectivity("a"); got != after {
		t.Fatal("zero-frame observation changed the estimate")
	}
	// Reset returns to seeds.
	c.Reset()
	if rate, n := c.Selectivity("a"); rate != 0.8 || n != 0 {
		t.Fatalf("reset: %v, %d", rate, n)
	}
	// Observe on an unseeded key self-seeds.
	c.Observe("b", 10, 5)
	if rate, n := c.Selectivity("b"); rate != 0.5 || n != 10 {
		t.Fatalf("self-seeded: %v, %d", rate, n)
	}
	// A seeded key's very first observation cannot slam the estimate to a
	// pole: one positive frame against a 0.5 seed barely moves it.
	c.Seed("tiny", 0.5)
	c.Observe("tiny", 1, 1)
	if rate, _ := c.Selectivity("tiny"); rate > 0.6 {
		t.Fatalf("1-frame first observation slammed the seed: %v", rate)
	}
	snap := c.Snapshot()
	if len(snap) != 3 || snap[0].Key != "a" || snap[1].Key != "b" || snap[2].Key != "tiny" {
		t.Fatalf("snapshot: %+v", snap)
	}
}

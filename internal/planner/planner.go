// Package planner is TAHOMA's cost-based, representation-aware query
// planner. Given one costed candidate cascade per content predicate, it
// orders the predicates by classic rank — expected cost divided by expected
// filtering power, cost / (1 − selectivity) — instead of cost alone, and
// prices each cascade against the live physical-representation state (slots a
// representation store serves are discounted because execution will take
// them as RepHits, and source records the record cache holds cost no read).
// Execution narrows step by step in that order: each predicate classifies
// only the rows the predicates before it let through.
//
// Selectivities are adaptive: the Catalog (catalog.go) folds every executed
// query's survivor counts into per-predicate EWMA pass rates, seeded from
// install-time estimates, so plans improve as the workload runs.
//
// The package is deliberately free of execution machinery: callers (the vdb
// layer) describe each predicate as plain costed data (Step) plus a
// plan-time residency snapshot (Availability), and get back an ordered,
// explainable Plan. Every estimate the plan prints is the one the decision
// used — EXPLAIN is the cost model, not a paraphrase of it.
package planner

import (
	"fmt"
	"sort"
	"strings"
)

// Options configure one planning call.
type Options struct {
	// Rows is the corpus size, for rendering.
	Rows int
	// CostModel names the pricing source, for rendering.
	CostModel string
}

// LevelCost prices one cascade level for planning.
type LevelCost struct {
	// RepID is the transform identity the level consumes.
	RepID string
	// RepCost is the cost of materializing that representation once for one
	// frame (seconds); charged only at the representation's first use.
	RepCost float64
	// InferCost is one inference at this level (seconds).
	InferCost float64
	// Occupancy is the expected fraction of classified frames reaching this
	// level (level 0 is 1; deeper levels shrink as thresholds decide).
	Occupancy float64
}

// Step is one content predicate's planning input: the chosen cascade, its
// decomposed costs, the current selectivity estimate and the materialized-
// column coverage.
type Step struct {
	// Input is the step's position in the parsed WHERE clause; the planner
	// reports its ordering as a permutation of Input values.
	Input int
	// Key identifies the predicate (the category); CascadeID the chosen
	// cascade.
	Key       string
	CascadeID string
	Negated   bool
	// SourceCost is the per-frame cost of loading and decoding the source
	// (charged unless every representation is served pre-materialized).
	SourceCost float64
	// Levels decompose the cascade stage by stage.
	Levels []LevelCost
	// Selectivity is the predicted positive-label pass rate in [0,1];
	// SelSamples counts the observed frames behind it (0 = seeded).
	Selectivity float64
	SelSamples  int64
	// CachedRows / TotalRows is the materialized-column coverage: rows whose
	// label is already known and costs nothing to reuse.
	CachedRows, TotalRows int
}

// Availability is the plan-time snapshot of physical-representation
// residency that the cost model discounts against. The zero value means
// "nothing resident".
type Availability struct {
	// Served reports whether a representation store serves transform id:
	// served slots skip both source decode and transform entirely.
	Served func(id string) bool
	// SourceResidentFrac estimates the fraction of rows whose source record is
	// resident in the store cache: using them costs no disk read (the
	// transform from the record's bytes is still paid per representation).
	SourceResidentFrac float64
}

// SampleFrac estimates a residency fraction by probing up to 16 rows evenly
// spread over [0,n) — deterministic, cheap, and independent of corpus size.
// It is the canonical sampling policy behind Availability estimates; every
// caller uses it so reported estimates
// mean the same thing everywhere.
func SampleFrac(n int, has func(int) bool) float64 {
	k := 16
	if n < k {
		k = n
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for j := 0; j < k; j++ {
		if has(j * n / k) {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

func (av Availability) served(id string) bool {
	return av.Served != nil && av.Served(id)
}

// PlannedStep is one content predicate with its planning verdicts attached.
type PlannedStep struct {
	Step
	// FullCost is the modeled cost with nothing resident; AdjCost discounts
	// representation and source work the run will take as RepHits. Both in
	// seconds/frame.
	FullCost float64
	AdjCost  float64
	// RepDiscount is the fraction of data-handling (source + rep) cost the
	// residency snapshot removed, in [0,1] — what "warm" is worth.
	RepDiscount float64
	// PassRate is the expected survivor fraction of this step after
	// negation, clamped away from 0 and 1 for rank stability.
	PassRate float64
	// Rank is AdjCost × (uncached fraction) / (1 − PassRate): seconds
	// spent per row discarded, over the rows the step will actually
	// classify. A fully materialized predicate is free filtering and ranks
	// first regardless of its cascade cost.
	Rank float64
}

// Plan is an ordered, costed, explainable content plan.
type Plan struct {
	CostModel string
	Rows      int
	// Steps is the execution order; Steps[i].Input maps back to the parsed
	// clause position.
	Steps []PlannedStep
}

// PlanContent costs the content predicates of one query and orders them by
// rank, ascending: the cheapest way to discard the most rows first. Ties keep
// their textual order.
func PlanContent(steps []Step, av Availability, opts Options) *Plan {
	p := &Plan{CostModel: opts.CostModel, Rows: opts.Rows}
	p.Steps = make([]PlannedStep, len(steps))
	for i, s := range steps {
		p.Steps[i] = costStep(s, av)
	}
	sort.SliceStable(p.Steps, func(i, j int) bool {
		return p.Steps[i].Rank < p.Steps[j].Rank
	})
	return p
}

// costStep prices one step against the residency snapshot.
func costStep(s Step, av Availability) PlannedStep {
	ps := PlannedStep{Step: s}
	// Distinct representations at first-use occupancy; the source decode is
	// needed unless every slot is served pre-materialized.
	type repUse struct {
		cost, occ float64
		id        string
	}
	var reps []repUse
	seen := make(map[string]bool, len(s.Levels))
	allServed := len(s.Levels) > 0
	infer := 0.0
	for _, lv := range s.Levels {
		infer += lv.Occupancy * lv.InferCost
		if !seen[lv.RepID] {
			seen[lv.RepID] = true
			reps = append(reps, repUse{cost: lv.RepCost, occ: lv.Occupancy, id: lv.RepID})
			if !av.served(lv.RepID) {
				allServed = false
			}
		}
	}
	srcFull := s.SourceCost
	srcAdj := srcFull * (1 - av.SourceResidentFrac)
	if allServed {
		srcAdj = 0
	}
	repFull, repAdj := 0.0, 0.0
	for _, r := range reps {
		full := r.occ * r.cost
		repFull += full
		// Served slots skip the transform; the store's own load cost is
		// already in the scenario pricing when it applies.
		if !av.served(r.id) {
			repAdj += full
		}
	}
	ps.FullCost = srcFull + repFull + infer
	ps.AdjCost = srcAdj + repAdj + infer
	if data := srcFull + repFull; data > 0 {
		ps.RepDiscount = 1 - (srcAdj+repAdj)/data
	}
	pass := clamp01(s.Selectivity)
	if s.Negated {
		pass = 1 - pass
	}
	ps.PassRate = clampPass(pass)
	// The materialized-column coverage discounts the rank: cached rows are
	// label lookups, so only the uncached fraction pays the cascade.
	ps.Rank = ps.AdjCost * (1 - ps.cachedFrac()) / (1 - ps.PassRate)
	return ps
}

// clampPass keeps pass rates off the poles so ranks stay finite and ordering
// stays total.
func clampPass(p float64) float64 {
	const eps = 1e-4
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

func (s *PlannedStep) cachedFrac() float64 {
	if s.TotalRows <= 0 {
		return 1
	}
	return clamp01(float64(s.CachedRows) / float64(s.TotalRows))
}

// us renders seconds as microseconds for EXPLAIN.
func us(sec float64) string { return fmt.Sprintf("%.1f us", sec*1e6) }

// CostLine renders the step's planning verdicts for EXPLAIN: the modeled
// cost, its residency-adjusted form when they differ, the selectivity
// estimate with its provenance, and the rank the ordering used.
func (s *PlannedStep) CostLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost %s/frame", us(s.FullCost))
	if s.RepDiscount > 0.005 {
		fmt.Fprintf(&b, " (rep-adjusted %s/frame, %.0f%% of data handling cached)", us(s.AdjCost), s.RepDiscount*100)
	}
	prov := "seeded"
	if s.SelSamples > 0 {
		prov = fmt.Sprintf("observed, n=%d", s.SelSamples)
	}
	fmt.Fprintf(&b, ", selectivity %.2f (%s)", s.PassRate, prov)
	if s.CachedRows > 0 {
		// Materialized coverage is rank provenance: the covered fraction
		// pays ~0 (a bitmap lookup), which is what moves this step ahead.
		fmt.Fprintf(&b, ", materialized %.0f%%", s.cachedFrac()*100)
	}
	fmt.Fprintf(&b, ", rank %s", us(s.Rank))
	return b.String()
}

// OrderLine renders the chosen ordering for EXPLAIN; empty below two steps,
// where ordering is moot.
func (p *Plan) OrderLine() string {
	if len(p.Steps) < 2 {
		return ""
	}
	keys := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		keys[i] = s.Key
	}
	return fmt.Sprintf("Content order: %s (rank — cost / (1 - selectivity), ascending)", strings.Join(keys, ", "))
}

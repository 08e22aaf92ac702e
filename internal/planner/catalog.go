package planner

import (
	"sort"
	"sync"
)

// Catalog is the per-database adaptive selectivity store: one EWMA-smoothed
// observed pass rate per predicate, seeded from install-time estimates and
// updated with the survivor counts every executed query reports. It is the
// feedback half of the planner — every query improves the next plan.
//
// The catalog is safe for concurrent use on its own lock and fits the DB's
// snapshot discipline: planning reads a point-in-time rate under Selectivity,
// execution runs lock-free, and observations fold in afterwards. Interleaved
// queries may plan against slightly stale rates, which affects only cost
// estimates, never results.
type Catalog struct {
	mu    sync.RWMutex
	preds map[string]*predStat
}

type predStat struct {
	seed    float64
	rate    float64
	samples int64 // observed frames folded into rate
}

// observeHalfWeight sets the EWMA's responsiveness: an observation of this
// many frames moves the estimate halfway to the observed batch rate, so a
// single 512-frame query dominates the seed while a 1-frame trigger batch
// barely nudges it. The seed acts as a prior of the same weight — the
// first observation is folded in exactly like every later one, never
// wholesale-replacing the install-time estimate.
const observeHalfWeight = 64

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{preds: make(map[string]*predStat)}
}

// Seed registers a predicate with its install-time selectivity estimate
// (typically the evaluation-set positive rate). Re-seeding an existing key
// updates the seed but keeps accumulated observations.
func (c *Catalog) Seed(key string, seed float64) {
	seed = clamp01(seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.preds[key]
	if !ok {
		c.preds[key] = &predStat{seed: seed, rate: seed}
		return
	}
	st.seed = seed
	if st.samples == 0 {
		st.rate = seed
	}
}

// Observe folds one query's survivor counts for a predicate into the
// estimate: frames classified, of which positives carried the positive
// label. Zero-frame observations are ignored. The update is a
// batch-size-weighted EWMA against whatever the estimate currently is —
// seed included — so a single-frame trigger batch cannot slam a seeded
// rate to 0 or 1.
//
// Observations are whatever the executor saw: a later predicate classifies
// only the survivors of earlier ones, so its sample is conditioned on them.
// For correlated predicates the EWMA therefore mixes rates conditioned on
// whichever predicates ran before it; that can cost plan
// quality on such workloads, never correctness — labels are
// order-invariant by construction.
func (c *Catalog) Observe(key string, frames, positives int) {
	if frames <= 0 {
		return
	}
	obs := float64(positives) / float64(frames)
	w := float64(frames) / float64(frames+observeHalfWeight)
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.preds[key]
	if !ok {
		c.preds[key] = &predStat{seed: obs, rate: obs, samples: int64(frames)}
		return
	}
	st.rate += float64(w * (obs - st.rate)) // rounded, so no GOARCH fuses it
	st.samples += int64(frames)
}

// Selectivity returns the current positive-label rate estimate for key and
// the number of observed frames behind it (0 = still the seed). Unknown keys
// report the fallback seed 0.5.
func (c *Catalog) Selectivity(key string) (rate float64, samples int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.preds[key]
	if !ok {
		return 0.5, 0
	}
	return st.rate, st.samples
}

// Reset drops every accumulated observation back to its seed — the move for
// a corpus swap, where observed rates describe data that is gone.
func (c *Catalog) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.preds {
		st.rate = st.seed
		st.samples = 0
	}
}

// CatalogEntry is one predicate's selectivity state, for observability
// surfaces (GET /stats).
type CatalogEntry struct {
	Key      string
	PassRate float64 // current positive-label rate estimate
	Samples  int64   // observed frames behind it (0 = seeded)
	Seed     float64 // install-time estimate
}

// Restore replaces the catalog's contents with a previously Snapshot-ted
// state — the recovery path: a restarted process resumes planning with the
// selectivity knowledge it had accumulated, not the install-time seeds.
func (c *Catalog) Restore(entries []CatalogEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.preds = make(map[string]*predStat, len(entries))
	for _, e := range entries {
		c.preds[e.Key] = &predStat{seed: clamp01(e.Seed), rate: clamp01(e.PassRate), samples: e.Samples}
	}
}

// Snapshot lists every predicate's state, sorted by key.
func (c *Catalog) Snapshot() []CatalogEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]CatalogEntry, 0, len(c.preds))
	for k, st := range c.preds {
		out = append(out, CatalogEntry{Key: k, PassRate: st.rate, Samples: st.samples, Seed: st.seed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

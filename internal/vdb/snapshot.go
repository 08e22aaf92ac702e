package vdb

import (
	"fmt"

	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/repstore"
)

// querySnapshot is one query's isolated view of the database: a fixed-length
// corpus view, the metadata rows, the resolved engine options, and private
// copies of every content step's materialized column. It is taken under
// db.mu, used lock-free for the expensive classification work, and merged
// back under db.mu — the snapshot-per-query half of the DB's concurrency
// model (Append and other queries proceed meanwhile).
type querySnapshot struct {
	corpus Corpus     // fixed-length view of the corpus at snapshot time
	meta   []Metadata // parallel metadata rows (entries are immutable)
	opts   exec.Options
	// cols are private column copies, parallel to plan.content; steps that
	// share a live column (the same predicate mentioned twice) share the
	// private copy too, so pointer-identity dedup in the executor still
	// holds. shared are the live columns the copies came from — nil under
	// MatOff, where fresh labels are transient and never published. keys are
	// the matstore identities, parallel to cols, so merge can report which
	// column each delta belongs to.
	cols   []*column
	shared []*column
	keys   []matstore.Key
}

// snapshotForPlan builds the query's snapshot. Caller holds db.mu (write:
// the shared columns are created and grown here).
func (db *DB) snapshotForPlan(plan *queryPlan) *querySnapshot {
	n := len(db.meta)
	snap := &querySnapshot{
		corpus: corpusView(db.corpus, n),
		meta:   db.meta[:n:n],
		opts:   db.contentExecOpts(),
	}
	if db.matMode == MatOff {
		// Materialization off: every query classifies into transient
		// private columns, deduped per (category, cascade) so a predicate
		// referenced twice is still one classification.
		priv := make(map[matstore.Key]*column, len(plan.content))
		for _, cs := range plan.content {
			k := matKey(cs.pred, cs.spec)
			p, ok := priv[k]
			if !ok {
				p = matstore.NewColumn()
				p.Grow(n)
				priv[k] = p
			}
			snap.cols = append(snap.cols, p)
			snap.shared = append(snap.shared, nil)
			snap.keys = append(snap.keys, k)
		}
		return snap
	}
	priv := make(map[*column]*column, len(plan.content))
	for _, cs := range plan.content {
		k := matKey(cs.pred, cs.spec)
		col := db.mat.Column(k)
		col.Grow(n)
		p, ok := priv[col]
		if !ok {
			p = col.CopyN(n)
			priv[col] = p
		}
		snap.cols = append(snap.cols, p)
		snap.shared = append(snap.shared, col)
		snap.keys = append(snap.keys, k)
	}
	return snap
}

// merge publishes freshly classified labels back into the shared columns,
// first-writer-wins. Caller holds db.mu. Rows another query validated first
// keep their labels — classification is deterministic per (cascade, row),
// so the values are identical either way and merge order cannot change any
// result. The shared column may have grown past the private length (Append
// during the query); only the snapshotted prefix merges.
// It returns the newly adopted (row, label) pairs per column — the exact
// state change, which the durability layer journals.
func (snap *querySnapshot) merge() []mergeDelta {
	seen := make(map[*column]bool, len(snap.cols))
	var deltas []mergeDelta
	for i, p := range snap.cols {
		if seen[p] || snap.shared[i] == nil {
			continue
		}
		seen[p] = true
		d := mergeDelta{key: snap.keys[i]}
		snap.shared[i].MergeDelta(p, func(row int, label bool) {
			d.rows = append(d.rows, row)
			d.labels = append(d.labels, label)
		})
		if len(d.rows) > 0 {
			deltas = append(deltas, d)
		}
	}
	return deltas
}

// corpusView returns a fixed-length view of the corpus: rows [0,n) keep
// resolving to the same images even if an Append lands mid-query. Both
// built-in corpora are append-only, so a bounded view over the snapshotted
// backing state is race-free without copying pixels.
func corpusView(c Corpus, n int) Corpus {
	switch cc := c.(type) {
	case *memoryCorpus:
		// Full slice expression: a concurrent append can never write into
		// this view's backing window.
		return &memoryCorpus{images: cc.images[:n:n]}
	case *storeCorpus:
		return &storeView{sc: cc, n: n}
	default:
		// Unknown implementations must be safe for concurrent use on their
		// own terms.
		return c
	}
}

// storeView bounds a store-backed corpus at n rows. The store itself is
// append-only and internally synchronized; the bound keeps a query's world
// stable while ingest proceeds.
type storeView struct {
	sc *storeCorpus
	n  int
}

func (v *storeView) Len() int { return v.n }

func (v *storeView) Image(i int) (*img.Image, error) {
	if i < 0 || i >= v.n {
		return nil, fmt.Errorf("vdb: row %d out of range [0,%d)", i, v.n)
	}
	return v.sc.Image(i)
}

// Record implements exec.RecordSource over the bounded view.
func (v *storeView) Record(i int, scratch *[]byte) (img.Record, error) {
	if i < 0 || i >= v.n {
		return img.Record{}, fmt.Errorf("vdb: row %d out of range [0,%d)", i, v.n)
	}
	return v.sc.Record(i, scratch)
}

// SharedRepCache is the cross-query representation cache: an LRU of
// materialized representations keyed by (transform, row) that every
// concurrent query reads from and publishes to, wired into the execution
// engine through DB.SetRepCache. Pixels are bit-identical to the transform
// output, so sharing never changes labels. It implements exec.RepCache and
// exec.CacheStatser (per-query hit/miss deltas land on query results).
type SharedRepCache struct {
	reps *repstore.SharedReps
}

// NewSharedRepCache builds a cross-query representation cache bounded at
// capacityBytes of decoded pixels.
func NewSharedRepCache(capacityBytes int64) (*SharedRepCache, error) {
	reps, err := repstore.NewSharedReps(capacityBytes)
	if err != nil {
		return nil, err
	}
	return &SharedRepCache{reps: reps}, nil
}

// GetRep implements exec.RepCache.
func (c *SharedRepCache) GetRep(i int, id string) *img.Image { return c.reps.GetRep(i, id) }

// PutRep implements exec.RepCache.
func (c *SharedRepCache) PutRep(i int, id string, im *img.Image) { c.reps.PutRep(i, id, im) }

// ContainsRep implements exec.RepContainser: a residency probe that touches
// neither the LRU order nor the hit/miss counters. The query planner samples
// it to discount cascade costs by what is already materialized — how the
// same query plans differently against a cold and a warm cache.
func (c *SharedRepCache) ContainsRep(i int, id string) bool { return c.reps.Contains(i, id) }

// CacheStats implements exec.CacheStatser: cumulative lookup counters and
// the current resident footprint.
func (c *SharedRepCache) CacheStats() exec.CacheStats {
	st := c.reps.Stats()
	return exec.CacheStats{Hits: st.Hits, Misses: st.Misses, EvictedBytes: st.EvictedBytes, ResidentBytes: st.ResidentBytes}
}

// Bytes reports the resident footprint — the uniform accessor shared with
// repstore.Cache and the matstore, so /stats sums the caches consistently.
func (c *SharedRepCache) Bytes() int64 { return c.reps.Bytes() }

// Evicted reports cumulative evicted bytes — the uniform accessor shared
// with repstore.Cache and the matstore.
func (c *SharedRepCache) Evicted() int64 { return c.reps.Evicted() }

package vdb

import (
	"context"
	"fmt"
	"sort"

	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/planner"
	"tahoma/internal/scenario"
)

// settings is the configuration a read state carries: what the Set* calls
// change. The DB holds the master copy under db.mu; every published state
// holds the copy that was current at publication.
type settings struct {
	execOpts  exec.Options
	planOpts  planner.Options // zero (rank order) outside tests
	serveReps bool
	matMode   MatMode
}

// readState is everything a statement reads, immutable once published: the
// row count, the metadata rows [0,n) with their block index, a corpus view
// bounded at n, the predicate catalog, the configuration, and the
// materialized column versions current at publication. Writers build the
// next state under db.mu and publish it with one atomic store; a reader pins
// the current one with one atomic load and plans, explains and executes
// against it without touching db.mu. The caches and the selectivity catalog
// it points at are shared and synchronize themselves.
type readState struct {
	settings
	n          int
	meta       []Metadata // [0,n); entries are never written again
	zones      []zone     // complete blocks of meta
	corpus     Corpus     // fixed-length view: rows [0,n)
	costModel  scenario.CostModel
	predicates map[string]*Predicate // replaced, never written, on install
	catalog    *planner.Catalog
	reps       *repSource
	cols       matstore.Columns
	gen        int64 // matstore generation cols belongs to
}

// publishLocked builds the read state for the DB's current contents and makes
// it the one new statements pin. Every mutation of what a statement reads
// ends here. Caller holds db.mu for writing.
func (db *DB) publishLocked() *readState {
	n := len(db.meta)
	st := &readState{
		settings:   db.settings,
		n:          n,
		meta:       db.meta[:n:n],
		zones:      db.zones,
		corpus:     corpusView(db.corpus, n),
		costModel:  db.costModel,
		predicates: db.predicates,
		catalog:    db.catalog,
		reps:       db.reps,
		cols:       db.mat.Columns(),
		gen:        db.mat.Generation(),
	}
	db.state.Store(st)
	return st
}

// contentExecOpts resolves the engine options for one content-predicate
// phase, attaching the corpus-backed RepSource when rep serving is on.
func (st *readState) contentExecOpts() exec.Options {
	opts := st.execOpts
	if st.serveReps && st.reps != nil {
		opts.RepSource = st.reps
	}
	return opts
}

// predicateNames lists installed categories, sorted.
func (st *readState) predicateNames() []string {
	out := make([]string, 0, len(st.predicates))
	for c := range st.predicates {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// overlay is freshly classified labels for one materialized column, computed
// against a pinned read state: a private column holding only the rows that
// state's version had no label for.
type overlay struct {
	key matstore.Key
	col *column
}

// classify runs cascade pred.Results[i] over rows of src — the pinned
// corpus, or a view of it that serves some rows from memory — on that
// cascade's installed engine, and returns the labels as an overlay for its
// column: the whole of what the ingest trigger and the analyzer do between
// pinning a state and publishing.
func (st *readState) classify(ctx context.Context, src exec.Source, pred *Predicate, i int, rows []int, opts exec.Options) (overlay, *exec.Report, error) {
	rt, err := pred.runtime(i)
	if err != nil {
		return overlay{}, nil, err
	}
	eng, err := rt.Engine()
	if err != nil {
		return overlay{}, nil, err
	}
	rep, err := eng.RunContext(ctx, src, rows, opts)
	if err != nil {
		return overlay{}, nil, err
	}
	o := overlay{key: matKey(pred, pred.Results[i].Spec), col: matstore.NewColumn()}
	o.col.Grow(st.n)
	for j, idx := range rows {
		o.col.SetLabel(idx, rep.Labels[j])
	}
	return o, rep, nil
}

// publish folds labels computed against the pinned state st into the shared
// columns and publishes the next read state. First writer wins: rows another
// statement published meanwhile keep their labels — classification is
// deterministic per (cascade, row), so the values are identical either way
// and publication order cannot change any result. Exactly the newly adopted
// (row, label) pairs are journaled. Labels computed against an older corpus
// generation describe rows that are gone: they are dropped, and publish
// reports false. The byte budget is enforced only when a publication changed
// the columns.
func (db *DB) publish(st *readState, fresh []overlay) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if st.gen != db.mat.Generation() {
		return false
	}
	var deltas []mergeDelta
	for _, o := range fresh {
		d := mergeDelta{key: o.key}
		db.mat.Publish(o.key, o.col, func(row int, label bool) {
			d.rows = append(d.rows, row)
			d.labels = append(d.labels, label)
		})
		if len(d.rows) > 0 {
			deltas = append(deltas, d)
		}
	}
	if len(deltas) > 0 {
		db.journalMergesLocked(deltas)
		db.mat.Enforce()
		db.publishLocked()
	}
	return true
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
		return &memoryCorpus{recs: cc.recs[:n:n]}
	case *storeCorpus:
		return &storeView{sc: cc, n: n}
	default:
		// Unknown implementations must be safe for concurrent use on their
		// own terms.
		return c
	}
}

// storeView bounds a store-backed corpus at n rows. The store itself is
// append-only and internally synchronized; the bound keeps a statement's
// world stable while ingest proceeds.
type storeView struct {
	sc *storeCorpus
	n  int
}

func (v *storeView) Len() int { return v.n }

func (v *storeView) Image(i int) (*img.Image, error) {
	if err := v.check(i); err != nil {
		return nil, err
	}
	return decoded(v.sc.cache.Record(i))
}

// Records reads the rows through the store's record cache in one batch, once
// every row is known to be inside the view.
func (v *storeView) Records(ctx context.Context, idx []int, dst []img.Record) error {
	for _, i := range idx {
		if err := v.check(i); err != nil {
			return err
		}
	}
	return v.sc.Records(ctx, idx, dst)
}

func (v *storeView) check(i int) error {
	if i < 0 || i >= v.n {
		return fmt.Errorf("vdb: row %d out of range [0,%d)", i, v.n)
	}
	return nil
}

// batchSource is a store-backed corpus view that serves the rows of one
// appended batch from the records the append was handed — the very bytes the
// store now holds — and every older row from the view itself. The ingest
// trigger classifies through it, so a new row is neither read back from the
// file it was just written to nor pulled into the record cache by its own
// ingest; it enters the cache when a query first reads it.
type batchSource struct {
	exec.RecordSource // the pinned view: rows [0, n)
	base              int
	recs              []img.Record // rows [base, base+len(recs))
}

// Records serves the batch's own rows from its records and reads each run of
// older rows consecutive in idx through the view with one call.
func (b *batchSource) Records(ctx context.Context, idx []int, dst []img.Record) error {
	for k := 0; k < len(idx); {
		if j, own := b.own(idx[k]); own {
			dst[k] = b.recs[j]
			k++
			continue
		}
		end := k + 1
		for end < len(idx) {
			if _, own := b.own(idx[end]); own {
				break
			}
			end++
		}
		if err := b.RecordSource.Records(ctx, idx[k:end], dst[k:end]); err != nil {
			return err
		}
		k = end
	}
	return nil
}

// own reports whether row i is one of the batch's, and its position there.
func (b *batchSource) own(i int) (int, bool) {
	j := i - b.base
	return j, j >= 0 && j < len(b.recs)
}

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
	"tahoma/internal/xform"
)

// settings is the configuration a read state carries: what the Set* calls
// change. The DB holds the master copy under db.mu; every published state
// holds the copy that was current at publication.
type settings struct {
	execOpts  exec.Options
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
		corpus:     db.corpus.view(n),
		costModel:  db.costModel,
		predicates: db.predicates,
		catalog:    db.catalog,
		cols:       db.mat.Columns(),
		gen:        db.mat.Generation(),
	}
	db.state.Store(st)
	return st
}

// contentExecOpts resolves the engine options for one content-predicate
// phase: with rep serving on, the pinned store view is the RepSource too.
func (st *readState) contentExecOpts() exec.Options {
	opts := st.execOpts
	if view, ok := st.corpus.(*storeView); ok && st.serveReps {
		opts.RepSource = view
	}
	return opts
}

// runCorpus returns the corpus a classification run over rows rows reads,
// and opts with its RepSource to match. A run that publishes its labels —
// any but one under MatOff — never reads its records again, so once its
// rows' source records come to more than 1/scanShare of the record cache's
// budget it reads through: sources and served representations alike are
// served from the cache when resident and otherwise loaded without being
// admitted, so the run neither evicts what rereads hit nor leaves its own
// records behind. Every other run reads the pinned corpus and RepSource as
// they are. The one read-through copy of the view serves both.
func (st *readState) runCorpus(rows int, opts exec.Options) (exec.Source, exec.Options) {
	view, ok := st.corpus.(*storeView)
	if !ok || st.matMode == MatOff || !view.sc.scan(rows) {
		return st.corpus, opts
	}
	through := *view
	through.through = true
	if opts.RepSource != nil {
		opts.RepSource = &through
	}
	return &through, opts
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
	o := overlay{key: pred.key(i), col: matstore.NewColumn()}
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

// storeView bounds a store-backed corpus at n rows, and is the one reader of
// it a statement has: it serves the rows' source records, and — as the
// run's exec.RepRecordSource — the representations the store holds. A served
// record is the one the engine would derive, so serving changes cost, never
// labels. The store itself is append-only and internally synchronized; the
// bound keeps a statement's world stable while ingest proceeds. A through
// view reads its misses through the record cache without admitting them (see
// readState.runCorpus).
type storeView struct {
	sc      *storeCorpus
	n       int
	through bool
}

func (v *storeView) Len() int { return v.n }

// Records reads the rows' source records as stored: RepRecords under the
// identity transform.
func (v *storeView) Records(ctx context.Context, idx []int, dst []img.Record) error {
	return v.RepRecords(ctx, xform.Transform{}, idx, dst)
}

// HasRep reports whether the store holds transform id's representations.
func (v *storeView) HasRep(id string) bool {
	_, ok := v.sc.reps[id]
	return ok
}

// RepRecords reads the rows' records under t through the record cache in
// one batch, once every row is known to be inside the view. A call naming a
// row outside it reads nothing and leaves every dst slot empty.
func (v *storeView) RepRecords(ctx context.Context, t xform.Transform, idx []int, dst []img.Record) error {
	for _, i := range idx {
		if i < 0 || i >= v.n {
			clear(dst[:len(idx)])
			return fmt.Errorf("vdb: row %d out of range [0,%d)", i, v.n)
		}
	}
	return v.sc.read(ctx, v.through, t, idx, dst)
}

// Image and Rep are the image forms of Records and RepRecords, the record
// decoded; the engine never calls them.
func (v *storeView) Image(i int) (*img.Image, error) { return v.decode(xform.Transform{}, i) }

func (v *storeView) Rep(i int, id string) (*img.Image, error) {
	t, ok := v.sc.reps[id]
	if !ok {
		return nil, fmt.Errorf("vdb: transform %s not materialized in the corpus store", id)
	}
	return v.decode(t, i)
}

func (v *storeView) decode(t xform.Transform, i int) (*img.Image, error) {
	var dst [1]img.Record
	err := v.RepRecords(context.Background(), t, []int{i}, dst[:])
	return decoded(dst[0], err)
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

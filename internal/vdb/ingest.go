package vdb

import (
	"context"
	"fmt"

	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/matstore"
)

// TriggerPolicy controls how content predicates are pre-materialized for
// newly ingested rows — the paper's suggestion that "database triggers could
// be used to execute the TAHOMA UDFs over newly ingested data ... In such
// situations, slower processing may be tolerated for more accurate results".
type TriggerPolicy struct {
	// Enabled activates ingest-time classification for installed
	// predicates.
	Enabled bool
	// Constraints select the cascade used at ingest time. Ingest typically
	// tolerates slower, more accurate cascades than interactive queries
	// (e.g. MaxAccuracyLoss 0).
	Constraints core.Constraints
}

// SetTriggerPolicy installs the ingest-time materialization policy.
func (db *DB) SetTriggerPolicy(p TriggerPolicy) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.trigger = p
}

// triggerJob is one predicate's planned ingest-time classification: the
// rows still missing from its trigger column, classified outside the lock
// into a private copy and merged back when done.
type triggerJob struct {
	category string
	spec     cascade.Spec
	rt       *cascade.Runtime
	shared   *column
	priv     *column
	missing  []int
	// frames/positives count the labels of a completed run, feeding the
	// adaptive selectivity catalog alongside the query path.
	frames    int
	positives int
}

// Append adds rows to the corpus. Under an enabled trigger policy, every
// installed predicate classifies the new rows immediately with its
// ingest-time cascade, extending the materialized virtual columns so that
// later queries pay no inference for these rows.
//
// Append coexists with in-flight queries: the catalog update (corpus + meta)
// happens under the DB lock, but trigger classification runs lock-free
// against a fixed-length corpus view and merges its labels at the end, the
// same snapshot discipline queries use. Queries snapshotted before the
// catalog update simply do not see the new rows.
// Under durability (EnableDurability), Append is write-ahead: the store's
// data and manifest are fsynced first (inside the corpus append), then the
// batch's journal record — and the trigger labels' merge records — are
// committed with an fsync before Append returns. A crash at any instant
// leaves either the whole acknowledged batch recoverable or (for an
// unacknowledged batch) a torn tail that recovery truncates away.
func (db *DB) Append(images []*img.Image, meta []Metadata) (udfCalls int, err error) {
	if len(images) != len(meta) {
		return 0, fmt.Errorf("vdb: %d images but %d metadata rows", len(images), len(meta))
	}
	db.mu.Lock()
	durable := db.durable
	if durable {
		// Fail-stop: once a journal write has failed, accepting more rows
		// would acknowledge writes that can never be recovered.
		if werr := db.wal.Err(); werr != nil {
			db.mu.Unlock()
			return 0, fmt.Errorf("vdb: journal failed, refusing appends: %w", werr)
		}
	}
	app, ok := db.corpus.(appender)
	if !ok {
		db.mu.Unlock()
		return 0, fmt.Errorf("vdb: corpus does not accept new rows")
	}
	if err := app.appendImages(images); err != nil {
		db.mu.Unlock()
		return 0, err
	}
	base := len(db.meta)
	db.meta = append(db.meta, meta...)

	noTriggers := !db.trigger.Enabled || db.matMode == MatOff
	if durable {
		// Journal the batch under the same critical section that appended it,
		// so journal order always matches row order (and a concurrent
		// checkpoint sees the two consistently). Buffered here; the fsync
		// below is the ack barrier.
		if _, werr := db.wal.Append(recAppend, encodeAppendRec(uint64(base), meta, noTriggers)); werr != nil {
			db.mu.Unlock()
			return 0, werr
		}
	}

	if noTriggers {
		// Without triggers (or with materialization off, where trigger
		// labels would have nowhere to live), existing materialized columns
		// no longer cover the corpus; drop them so queries recompute.
		// In-flight queries merge into the orphaned columns, which is
		// harmless.
		db.resetMaterialized()
		db.mu.Unlock()
		if durable {
			if werr := db.wal.Sync(); werr != nil {
				return 0, werr
			}
		}
		return 0, nil
	}

	// Plan the trigger work under the lock: select each predicate's ingest
	// cascade, grow its column, and copy the rows still missing.
	n := len(db.meta)
	view := corpusView(db.corpus, n)
	// Plain exec options only: trigger runs have always classified from
	// the freshly appended sources, and those rows have no stored or
	// cached representation to hit anyway — so RepSource and RepCache stay
	// out, including any the caller put into SetExecOptions directly.
	opts := db.execOpts
	opts.RepSource = nil
	opts.RepCache = nil
	var jobs []*triggerJob
	for _, pred := range db.predicates {
		point, serr := core.Select(pred.Frontier, db.trigger.Constraints)
		if serr != nil {
			db.mu.Unlock()
			return 0, fmt.Errorf("vdb: trigger cascade for %q: %w", pred.Category, serr)
		}
		res := pred.Results[point.Index]
		// First materialization: the run below backfills the whole corpus
		// (old rows included) so the column is complete.
		col := db.mat.Column(matKey(pred, res.Spec))
		col.Grow(n)
		priv := col.CopyN(n)
		missing := priv.Invalid()
		if len(missing) == 0 {
			continue
		}
		rt, rerr := cascade.NewRuntime(res.Spec, pred.System.Models, pred.System.Thresholds)
		if rerr != nil {
			db.mu.Unlock()
			return 0, rerr
		}
		jobs = append(jobs, &triggerJob{
			category: pred.Category, spec: res.Spec, rt: rt,
			shared: col, priv: priv, missing: missing,
		})
	}
	db.mu.Unlock()

	// Classify outside the lock, one engine run per predicate over the rows
	// its column is missing. A run publishes all of its labels or none: a
	// failed predicate leaves its private column untouched, so the merge
	// below carries only the predicates that finished before it and the
	// reported udfCalls always matches the labels actually published.
	defer func() {
		db.mu.Lock()
		deltas := make([]mergeDelta, 0, len(jobs))
		for _, jb := range jobs {
			d := mergeDelta{key: matstore.Key{Category: jb.category, Cascade: jb.spec.ID()}}
			jb.shared.MergeDelta(jb.priv, func(row int, label bool) {
				d.rows = append(d.rows, row)
				d.labels = append(d.labels, label)
			})
			deltas = append(deltas, d)
		}
		db.journalMergesLocked(deltas)
		db.mat.Enforce()
		db.mu.Unlock()
		// Trigger classifications are observations too: ingest-time labels
		// tune the selectivity catalog just like query-time ones.
		for _, jb := range jobs {
			db.catalog.Observe(jb.category, jb.frames, jb.positives)
		}
		// The ack barrier: the batch's journal record (and the trigger
		// labels that rode behind it) hit disk before Append returns
		// success. A sync failure un-acknowledges the batch.
		if durable {
			if werr := db.wal.Sync(); werr != nil && err == nil {
				err = werr
			}
		}
	}()
	for _, jb := range jobs {
		eng, err := jb.rt.Engine()
		if err != nil {
			return udfCalls, err
		}
		rep, err := eng.RunContext(context.TODO(), view, jb.missing, opts)
		if err != nil {
			return udfCalls, fmt.Errorf("vdb: trigger classify for %q: %w", jb.category, err)
		}
		for j, idx := range jb.missing {
			jb.priv.SetLabel(idx, rep.Labels[0][j])
		}
		jb.frames, jb.positives = rep.Frames, rep.Positives[0]
		udfCalls += rep.Frames
	}
	return udfCalls, nil
}

// TriggerCascade reports the cascade the trigger policy would select for a
// category, for EXPLAIN-style introspection.
func (db *DB) TriggerCascade(category string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pred, ok := db.predicates[category]
	if !ok {
		return "", fmt.Errorf("vdb: no classifier installed for %q", category)
	}
	point, err := core.Select(pred.Frontier, db.trigger.Constraints)
	if err != nil {
		return "", err
	}
	res := pred.Results[point.Index]
	return res.Spec.Describe(pred.System.Models), nil
}

package vdb

import (
	"context"
	"fmt"

	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/img"
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

// Append adds rows to the corpus. Under an enabled trigger policy, every
// installed predicate classifies the new rows immediately with its
// ingest-time cascade, extending the materialized virtual columns so that
// later queries pay no inference for these rows.
//
// Append coexists with in-flight queries, and no reader waits for it: the
// catalog update (corpus + meta + journal record, store fsyncs included)
// happens under the DB lock, which the read path never takes, and ends by
// publishing the read state that contains the batch. Trigger classification
// then runs against that pinned state and publishes its labels at the end,
// the same discipline queries use. Statements that pinned an earlier state
// simply do not see the new rows.
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
	db.zones = extendZones(db.zones, db.meta)

	noTriggers := !db.trigger.Enabled || db.matMode == MatOff
	var werr error
	if durable {
		// Journal the batch under the same critical section that appended it,
		// so journal order always matches row order (and a concurrent
		// checkpoint sees the two consistently). Buffered here; the fsync
		// below is the ack barrier.
		_, werr = db.wal.Append(recAppend, encodeAppendRec(uint64(base), meta, noTriggers))
	}
	if noTriggers && werr == nil {
		// Without triggers (or with materialization off, where trigger
		// labels would have nowhere to live), existing materialized columns
		// no longer cover the corpus; drop them so queries recompute.
		// Statements still running against the old state have their labels
		// refused at publication.
		db.mat.Invalidate()
	}
	st := db.publishLocked()
	trigger := db.trigger
	// Plain exec options only: trigger runs have always classified from
	// the freshly appended sources, and those rows have no stored or
	// cached representation to hit anyway — so RepSource and RepCache stay
	// out, including any the caller put into SetExecOptions directly.
	opts := db.execOpts
	opts.RepSource = nil
	opts.RepCache = nil
	db.mu.Unlock()
	if werr != nil {
		return 0, werr
	}

	// ack is the barrier: the batch's journal record (and the trigger labels
	// that rode behind it) hit disk before Append returns success. A sync
	// failure un-acknowledges the batch.
	ack := func() {
		if durable {
			if serr := db.wal.Sync(); serr != nil && err == nil {
				err = serr
			}
		}
	}
	if noTriggers {
		ack()
		return 0, err
	}

	// Plan the trigger work against the state just published: each
	// predicate's ingest cascade and the rows its column has no label for —
	// on first materialization the whole corpus (old rows included), so the
	// column is complete.
	type triggerJob struct {
		pred    *Predicate
		spec    cascade.Spec
		missing []int
	}
	var jobs []triggerJob
	for _, pred := range st.predicates {
		point, serr := core.Select(pred.Frontier, trigger.Constraints)
		if serr != nil {
			return 0, fmt.Errorf("vdb: trigger cascade for %q: %w", pred.Category, serr)
		}
		spec := pred.Results[point.Index].Spec
		if missing := st.cols.Get(matKey(pred, spec)).InvalidN(st.n, -1); len(missing) > 0 {
			jobs = append(jobs, triggerJob{pred, spec, missing})
		}
	}

	// One engine run per predicate. A run publishes all of its labels or
	// none: a failed predicate contributes no overlay, so what is published
	// carries only the predicates that finished before it and the reported
	// udfCalls always matches the labels actually published.
	var fresh []overlay
	defer func() {
		db.publish(st, fresh)
		ack()
	}()
	for _, jb := range jobs {
		o, rep, cerr := st.classify(context.TODO(), jb.pred, jb.spec, jb.missing, opts)
		if cerr != nil {
			return udfCalls, fmt.Errorf("vdb: trigger classify for %q: %w", jb.pred.Category, cerr)
		}
		fresh = append(fresh, o)
		udfCalls += rep.Frames
		// Trigger classifications are observations too: ingest-time labels
		// tune the selectivity catalog just like query-time ones.
		db.catalog.Observe(jb.pred.Category, rep.Frames, rep.Positives[0])
	}
	return udfCalls, nil
}

// TriggerCascade reports the cascade the trigger policy would select for a
// category, for EXPLAIN-style introspection.
func (db *DB) TriggerCascade(category string) (string, error) {
	db.mu.RLock()
	trigger := db.trigger
	db.mu.RUnlock()
	pred, ok := db.state.Load().predicates[category]
	if !ok {
		return "", fmt.Errorf("vdb: no classifier installed for %q", category)
	}
	point, err := core.Select(pred.Frontier, trigger.Constraints)
	if err != nil {
		return "", err
	}
	res := pred.Results[point.Index]
	return res.Spec.Describe(pred.System.Models), nil
}

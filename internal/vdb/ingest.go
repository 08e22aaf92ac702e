package vdb

import (
	"context"
	"fmt"

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

// Append adds rows to the corpus: it encodes each image once, into the record
// the corpus will hold (img.AppendRecord — samples clamped and quantized to 8
// bits), and hands the records to AppendRecords, the one append path. What is
// stored, journaled, classified by the trigger and materialized beside the
// row all derives from that record.
func (db *DB) Append(images []*img.Image, meta []Metadata) (udfCalls int, err error) {
	if len(images) != len(meta) {
		return 0, fmt.Errorf("vdb: %d images but %d metadata rows", len(images), len(meta))
	}
	recs, err := encodeRecords(images)
	if err != nil {
		return 0, err
	}
	return db.AppendRecords(recs, meta)
}

// encodeRecords encodes images to their TIMG records, all in one buffer.
func encodeRecords(images []*img.Image) ([]img.Record, error) {
	total := 0
	for _, im := range images {
		total += im.StoredBytes()
	}
	buf := make([]byte, 0, total)
	recs := make([]img.Record, len(images))
	for i, im := range images {
		start := len(buf)
		var err error
		if buf, err = img.AppendRecord(buf, im); err != nil {
			return nil, fmt.Errorf("vdb: row %d: %w", i, err)
		}
		if recs[i], err = img.ParseRecord(buf[start:]); err != nil {
			return nil, fmt.Errorf("vdb: row %d: %w", i, err)
		}
	}
	return recs, nil
}

// AppendRecords adds rows to the corpus from their stored records, verbatim:
// the bytes a row arrived as are the bytes the store holds. Under an enabled
// trigger policy, every installed predicate classifies the new rows
// immediately with its ingest-time cascade, extending the materialized
// virtual columns so that later queries pay no inference for these rows. The
// trigger reads the batch from recs, not back from the corpus. An in-memory
// corpus keeps recs as its rows, so the caller must not write them again.
//
// AppendRecords coexists with in-flight queries, and no reader waits for it:
// the catalog update (corpus + meta + journal record) happens under the DB
// lock, which the read path never takes, and ends by publishing the read
// state that contains the batch. Trigger classification then runs against
// that pinned state and publishes its labels at the end, the same discipline
// queries use. Statements that pinned an earlier state simply do not see the
// new rows.
//
// Under durability (EnableDurability) the journal is the commit point. In
// order: the rows are written to the store with no fsync and no manifest
// update (a failure here fails the batch cleanly — nothing references the
// bytes, a retry overwrites them); the batch's journal record — base row,
// metadata and the records themselves — is appended; the batch is published
// and classified; the trigger labels' merge records are appended; and one
// journal fsync, the only one an acknowledged batch pays, makes all of it
// durable before AppendRecords returns. The store catches up at the next
// checkpoint. A crash at any instant leaves either the whole acknowledged
// batch recoverable — replay rewrites from the journal whatever the store
// lost — or, for an unacknowledged batch, a tail that recovery cuts away. A
// journal failure is fail-stop: the batch is not acknowledged and every later
// append is refused until a restart recovers the acknowledged prefix.
//
// Without durability a store-backed corpus commits each batch itself (data
// fsync, then manifest) before the batch is published.
func (db *DB) AppendRecords(recs []img.Record, meta []Metadata) (udfCalls int, err error) {
	if len(recs) != len(meta) {
		return 0, fmt.Errorf("vdb: %d images but %d metadata rows", len(recs), len(meta))
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
	base := len(db.meta)
	if err := db.corpus.appendRecords(base, recs, durable); err != nil {
		db.mu.Unlock()
		return 0, err
	}
	noTriggers := !db.trigger.Enabled || db.matMode == MatOff
	if durable {
		// Journal the batch under the same critical section that wrote it, so
		// journal order always matches row order (and a concurrent checkpoint
		// sees the two consistently). Written here; the fsync below is the
		// ack barrier. On failure the rows just written stay past the row
		// count, referenced by nothing, and recovery cuts them.
		if werr := db.journalAppendLocked(uint64(base), meta, recs, noTriggers); werr != nil {
			db.mu.Unlock()
			return 0, werr
		}
	}
	db.meta = append(db.meta, meta...)
	db.zones = extendZones(db.zones, db.meta)
	if noTriggers {
		// Without triggers (or with materialization off, where trigger
		// labels would have nowhere to live), existing materialized columns
		// no longer cover the corpus; drop them so queries recompute.
		// Statements still running against the old state have their labels
		// refused at publication.
		db.mat.Invalidate()
	}
	st := db.publishLocked()
	trigger := db.trigger
	// Plain exec options, no RepSource: a trigger run reads the batch's own
	// rows from the records it was handed (batchSource), not back from the
	// store, and derives every slot.
	opts := db.execOpts
	db.mu.Unlock()

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
		cascade int // index into pred.Results
		missing []int
	}
	var jobs []triggerJob
	for _, pred := range st.predicates {
		point, serr := core.Select(pred.Frontier, trigger.Constraints)
		if serr != nil {
			return 0, fmt.Errorf("vdb: trigger cascade for %q: %w", pred.Category, serr)
		}
		if missing := st.cols.Get(pred.key(point.Index)).InvalidN(st.n, -1); len(missing) > 0 {
			jobs = append(jobs, triggerJob{pred, point.Index, missing})
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
		// A store-backed corpus serves the batch's own rows from recs: the
		// bytes the store was just handed, without reading them back through
		// the cache.
		src, jopts := st.runCorpus(len(jb.missing), opts)
		if view, ok := src.(*storeView); ok {
			src = &batchSource{RecordSource: view, base: base, recs: recs}
		}
		o, rep, cerr := st.classify(context.TODO(), src, jb.pred, jb.cascade, jb.missing, jopts)
		if cerr != nil {
			return udfCalls, fmt.Errorf("vdb: trigger classify for %q: %w", jb.pred.Category, cerr)
		}
		fresh = append(fresh, o)
		udfCalls += rep.Frames
		// Trigger classifications are observations too: ingest-time labels
		// tune the selectivity catalog just like query-time ones.
		db.catalog.Observe(jb.pred.Category, rep.Frames, rep.Positives)
	}
	return udfCalls, nil
}

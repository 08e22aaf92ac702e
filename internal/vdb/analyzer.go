package vdb

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"tahoma/internal/cascade"
)

// AnalyzerOptions configure the background label analyzer.
type AnalyzerOptions struct {
	// Interval is the idle-poll period (default 25ms). Each tick the
	// analyzer asks Idle and, when the answer is yes, materializes one
	// bounded batch; successful batches chain immediately (re-checking
	// Idle between each) so an idle server converges fast.
	Interval time.Duration
	// BatchRows bounds one batch of classification (default 64 rows) — the
	// unit at which the analyzer yields to foreground work.
	BatchRows int
	// Idle gates the analyzer on foreground load: it only classifies when
	// Idle returns true (typically Server.Idle, so the admission pool has
	// strict priority). nil means always idle.
	Idle func() bool
	// Workers sizes the batch's execution engine (default 1, deliberately
	// under-parallel so a mid-batch arrival is delayed as little as
	// possible). The cascade itself needs no selection knob: the analyzer
	// materializes exactly the (predicate, cascade) columns queries
	// touched, so repeat queries read the column it fills.
	Workers int
}

func (o AnalyzerOptions) interval() time.Duration {
	if o.Interval <= 0 {
		return 25 * time.Millisecond
	}
	return o.Interval
}

func (o AnalyzerOptions) batchRows() int {
	if o.BatchRows <= 0 {
		return 64
	}
	return o.BatchRows
}

func (o AnalyzerOptions) workers() int {
	if o.Workers <= 0 {
		return 1
	}
	return o.Workers
}

func (o AnalyzerOptions) idle() bool {
	return o.Idle == nil || o.Idle()
}

// StartAnalyzer launches the background analyzer: a goroutine that watches
// the per-predicate usage table and, whenever the foreground is idle,
// pre-materializes the hottest uncovered predicate in bounded batches — so
// a repeat-heavy workload converges to bitmap lookups without any query
// paying the materialization cost. TiDB's "analyze predicate columns"
// shape: background capacity is spent only on predicates queries touched.
//
// Each batch follows the query path's discipline: it pins the current read
// state, selects its target and classifies against that state without any
// lock, and publishes its labels first-writer-wins — bit-identical to
// query-time classification, so the analyzer can never change a result, only
// prepay it.
//
// The returned stop function cancels the goroutine and blocks until it has
// fully exited (deterministic shutdown); cancelling ctx does the same
// without waiting. Starting twice without stopping is an error, as is
// starting under MatOff.
func (db *DB) StartAnalyzer(ctx context.Context, o AnalyzerOptions) (stop func(), err error) {
	db.mu.Lock()
	if db.matMode == MatOff {
		db.mu.Unlock()
		return nil, fmt.Errorf("vdb: analyzer needs materialization on (mode is off)")
	}
	if db.analyzerOn {
		db.mu.Unlock()
		return nil, fmt.Errorf("vdb: analyzer already running")
	}
	db.analyzerOn = true
	db.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go db.analyzerLoop(ctx, o, done)
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}, nil
}

func (db *DB) analyzerLoop(ctx context.Context, o AnalyzerOptions, done chan<- struct{}) {
	defer func() {
		db.mu.Lock()
		db.analyzerOn = false
		db.mu.Unlock()
		close(done)
	}()
	ticker := time.NewTicker(o.interval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		// Chain batches while the server stays idle and targets remain;
		// the instant a query arrives (Idle false) or the table is fully
		// covered, fall back to polling.
		for o.idle() {
			worked, err := db.analyzeOnce(ctx, o)
			if err != nil || !worked {
				break
			}
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}
}

// analyzeOnce materializes one bounded batch of the hottest uncovered
// predicate. worked is false when there is nothing to do. The analyzer's ctx
// reaches the engine run, so stopping the analyzer cancels an in-flight
// batch instead of waiting it out — a cancelled batch's labels are discarded
// before publication, exactly like a cancelled query's. A corpus swapped
// mid-batch makes publish refuse the labels: they describe dead rows.
func (db *DB) analyzeOnce(ctx context.Context, o AnalyzerOptions) (worked bool, err error) {
	st := db.state.Load()
	if st.n == 0 || st.matMode == MatOff {
		return false, nil
	}
	key, ok := db.mat.Hottest(st.cols, st.n)
	if !ok {
		return false, nil
	}
	pred := st.predicates[key.Category]
	if pred == nil {
		return false, nil
	}
	// The usage table keys by the exact cascade queries selected; if the
	// constraint knob selects a different one for this predicate, honor the
	// usage key — that is the column repeat queries will read.
	idx := slices.IndexFunc(pred.Results, func(r cascade.Result) bool { return r.Spec.ID() == key.Cascade })
	if idx < 0 {
		return false, nil
	}
	batch := st.cols.Get(key).InvalidN(st.n, o.batchRows())
	if len(batch) == 0 {
		return false, nil
	}
	// Exactly like a query: a row-indexed engine run over the pinned view,
	// RepSource included.
	src, opts := st.runCorpus(len(batch), st.contentExecOpts())
	opts.Workers = o.workers()
	fresh, rep, err := st.classify(ctx, src, pred, idx, batch, opts)
	if err != nil {
		if ctx.Err() != nil {
			// Shutdown mid-batch: not an analyzer failure, nothing publishes.
			return false, nil
		}
		return false, fmt.Errorf("vdb: analyzer classifying %q: %w", key.Category, err)
	}
	// Analyzer labels are lazily journaled like query labels: losing them
	// only costs re-materialization.
	if db.publish(st, []overlay{fresh}) {
		db.mat.RecordAnalyzer(len(batch))
	}
	// Analyzer labels are observations too: they tune the selectivity
	// catalog exactly like query- and trigger-time classifications.
	db.catalog.Observe(key.Category, rep.Frames, rep.Positives)
	return true, nil
}

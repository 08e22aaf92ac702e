// Package exec is TAHOMA's predicate execution engine: the paper's one
// loop — load, transform, infer, short-circuit — batched and worker-parallel.
// Every inference consumer (the cascade runtime, the ingest trigger, the
// background analyzer, the VDB query executor and the public Classifier)
// classifies frames through an Engine, so batching, physical-representation
// sharing and multi-core parallelism live in one place.
//
// An Engine is planned over one cascade. Planning assigns every distinct
// transform (xform.Transform.ID identity) among its levels one
// representation slot, so each (frame, slot) pair is materialized at most
// once per run no matter how many levels consume it, matching the
// evaluator's Section VI cost accounting. A run splits its frame list into
// batches and hands them to share-nothing workers: each worker pins its
// batch's source frames as stored TIMG records with one call, then walks the
// cascade level-major: materialize the level's slot for the still-undecided
// frames into pooled buffers (a served slot's records read with one call
// per level), score them with one batched inference call, apply the
// thresholds, compact the survivors — so every frame still short-circuits at
// its earliest deciding level.
//
// A representation is its stored bytes. Every slot the engine scores is the
// expansion (img.UnitsInto) of a record: one a RepSource served, or one
// derived from the source record by xform.Transform.AppendRecord, the
// derivation a store runs to materialize it — so a served slot and a derived
// one are bit-identical. An input held as float32 images is encoded to its
// record once, at the boundary. Labels and accounting are bit-identical to
// the per-frame walk (ClassifyOne) at every worker count and batch size,
// whichever way a frame or a representation is held; per-batch and per-run
// stats let callers compare measured throughput against the evaluator's
// analytic estimate.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/par"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

// PanicError is a panic contained by an engine worker (or a server handler):
// the run fails with a descriptive error carrying the panic value and stack
// instead of crashing the process — one wedged query must never take down
// the serving tier.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value and the captured stack.
func (p *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", p.Value, p.Stack)
}

// runProtected invokes fn behind a recover wall, converting a panic into a
// *PanicError. Deferred cleanups inside fn (pooled-buffer releases) run
// before the recover, so containment never leaks engine state.
func runProtected(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// canceled reports whether err is a context cancellation or deadline.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Level is one executable cascade stage, resolved to a concrete model and
// decision thresholds. The final level has Last set and accepts its model's
// output at the 0.5 cutoff; every other level is thresholded.
type Level struct {
	Model      *model.Model
	Thresholds thresh.Thresholds
	Last       bool
}

// Source supplies source frames by row index as float32 images. A run
// encodes each frame it loads to its TIMG record (img.AppendRecord) once, in
// a buffer the worker owns; a RecordSource's Image is never called.
type Source interface {
	Len() int
	Image(i int) (*img.Image, error)
}

// RecordSource is implemented by Sources whose frames are held as stored TIMG
// records (both of vdb's corpora): a run pins each batch's records as they
// are held, with one call and nothing to encode. Detected once per run.
type RecordSource interface {
	Source
	// Records fills dst[k] with the stored record of frame idx[k] for every k
	// of idx: resident, shared and immutable, valid for as long as the caller
	// references it. A frame it cannot read fails the call with an error
	// naming the frame, and dst is then undefined; a done ctx may stop it
	// with ctx's error. Must be safe for concurrent use.
	Records(ctx context.Context, idx []int, dst []img.Record) error
}

// RepSource serves pre-materialized physical representations by source frame
// index and transform identity (xform.Transform.ID). When a run has one, the
// engine skips both the source load and the derivation for every slot the
// source covers — the representation-store fast path the ARCHIVE and ONGOING
// scenarios price. Implementations must be safe for concurrent use. A served
// image is encoded to its record at the boundary, like a Source's frame, and
// the record expanded into a buffer the worker owns. A store's served record
// is the one its derivation wrote, so serving is a pure cost choice: labels
// are those of a RepSource-less run. Serving is decided once per slot per
// run.
type RepSource interface {
	// HasRep reports whether representations of transform id can be
	// served. The engine consults it once per run per slot; availability must
	// not change during a run.
	HasRep(id string) bool
	// Rep returns the representation of source frame i under transform id.
	Rep(i int, id string) (*img.Image, error)
}

// RepRecordSource is implemented by RepSources whose representations are
// held as stored TIMG records (vdb's store-backed corpus), a quarter of the
// bytes: a run reads a served slot's records as they are held, one call per
// level for the batch's undecided frames. Detected once per run, like
// RecordSource; Rep is then never called.
type RepRecordSource interface {
	RepSource
	// RepRecords fills dst[k] with the stored record of source frame idx[k]'s
	// representation under t for every k of idx: resident, shared and
	// immutable. A representation it cannot read leaves dst[k] empty (nil
	// Pix) and the others are still read — the engine derives that one
	// instead — and the error is then the first such failure. A done ctx
	// stops the read with ctx's error. Must be safe for concurrent use.
	RepRecords(ctx context.Context, t xform.Transform, idx []int, dst []img.Record) error
}

// Frames adapts an in-memory slice of float32 images to Source.
type Frames []*img.Image

// Len returns the frame count.
func (f Frames) Len() int { return len(f) }

// Image returns frame i.
func (f Frames) Image(i int) (*img.Image, error) {
	if i < 0 || i >= len(f) {
		return nil, fmt.Errorf("exec: frame %d out of range [0,%d)", i, len(f))
	}
	return f[i], nil
}

// DefaultBatch is the batch size used when Options.Batch is zero.
const DefaultBatch = 64

// Options size a run. The zero value means GOMAXPROCS workers and
// DefaultBatch frames per batch.
type Options struct {
	// Workers is the number of concurrent classification goroutines
	// (0 = GOMAXPROCS). Results are bit-identical at every worker count.
	Workers int
	// Batch is the number of frames dispatched to a worker at a time
	// (0 = DefaultBatch). Batching amortizes dispatch overhead, sets the
	// granularity of the per-batch stats, and bounds the inner loop's
	// working set.
	Batch int
	// RepSource, when set, serves pre-materialized representations for
	// the transforms it covers: served slots skip the source load and the
	// derivation and are counted as RepHits instead of RepsMaterialized.
	RepSource RepSource
	// Quantize is ignored: every level scores float32.
	//
	// Deprecated: see QuantMode; delete it when a harness PR drops the calls.
	Quantize QuantMode
}

func (o Options) normalized() Options {
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	return o
}

// Trace records what classifying one frame did, for cost verification and
// debugging.
type Trace struct {
	LevelsRun   int
	RepsCreated []string // transform IDs materialized, in order
	Scores      []float32
}

// BatchStats reports one batch's work.
type BatchStats struct {
	Start            int // offset of the batch within the run's frame list
	Frames           int
	LevelsRun        int
	RepsMaterialized int
	RepHits          int // slots served by the RepSource instead of transformed
	// RepFallbacks counts representation reads the RepSource failed that
	// were degraded to load + derive instead of failing the run (they also
	// count in RepsMaterialized — a derivation really ran).
	RepFallbacks int
	Wall         time.Duration
}

// Report is one run's accounting.
type Report struct {
	// Labels[j] is the cascade's label for frame indices[j].
	Labels           []bool
	Frames           int
	LevelsRun        int
	RepsMaterialized int
	RepHits          int
	// RepFallbacks counts RepSource read failures degraded to plain
	// inference (see BatchStats.RepFallbacks).
	RepFallbacks int
	// Cancelled marks a run cut short by context cancellation or deadline.
	// The report is partial: labels are valid only for batches that
	// completed, and the run returns it alongside the context error so
	// callers can observe how far the run got. Partial labels must never be
	// cached or merged.
	Cancelled bool
	// Positives counts the true labels — Positives over Frames is the
	// observed pass rate, the adaptive-selectivity feedback signal the query
	// planner consumes.
	Positives int
	// Batches reports per-batch work in frame order.
	Batches []BatchStats
	// Wall is the end-to-end run time; Throughput is Frames/Wall in
	// frames/sec, directly comparable to the evaluator's analytic
	// Result.Throughput estimate.
	Wall       time.Duration
	Throughput float64
}

// Engine executes one cascade over its representation-slot plan. Build it
// once per cascade with New; runs are safe for concurrent use (each worker
// clones the models' scratch state), ClassifyOne is not.
type Engine struct {
	levels []Level
	slot   []int             // [level] -> representation slot
	repIDs []string          // per slot: transform identity
	repXf  []xform.Transform // per slot: the transform itself
	// idle holds per-goroutine state (model clones, survivor bookkeeping,
	// pooled representation buffers) between runs, so repeated runs reach a
	// steady state with no per-frame allocations. A plain free list, not a
	// sync.Pool: a pool drops what it holds every other GC cycle, and a
	// worker's clones and buffers are worth keeping for as long as the
	// engine lives — each cascade runtime keeps one engine across
	// statements. Idle workers die with their engine.
	mu   sync.Mutex
	idle []*worker
}

// takeWorker takes an idle worker or builds one.
func (e *Engine) takeWorker() *worker {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return w
	}
	return &worker{levels: e.cloneLevels()}
}

// parkWorker returns a worker to the free list.
func (e *Engine) parkWorker(w *worker) {
	e.mu.Lock()
	e.idle = append(e.idle, w)
	e.mu.Unlock()
}

// New plans an engine over one cascade: exactly its final level must have
// Last set. Transform dedup across levels is planned here, once, instead of
// per frame: a transform several levels consume gets a single slot.
func New(levels []Level) (*Engine, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("exec: empty cascade")
	}
	e := &Engine{levels: append([]Level(nil), levels...), slot: make([]int, len(levels))}
	slots := make(map[string]int)
	for i, lv := range levels {
		if lv.Model == nil {
			return nil, fmt.Errorf("exec: level %d has no model", i)
		}
		if last := i == len(levels)-1; lv.Last != last {
			return nil, fmt.Errorf("exec: level %d/%d has Last=%v", i+1, len(levels), lv.Last)
		}
		id := lv.Model.Xform.ID()
		s, ok := slots[id]
		if !ok {
			s = len(e.repIDs)
			slots[id] = s
			e.repIDs = append(e.repIDs, id)
			e.repXf = append(e.repXf, lv.Model.Xform)
		}
		e.slot[i] = s
	}
	return e, nil
}

// cloneLevels builds a worker-local level set: models are cloned (weights
// shared, inference scratch independent), deduplicated so a model appearing
// at several levels is cloned once per worker.
func (e *Engine) cloneLevels() []Level {
	clones := make(map[*model.Model]*model.Model)
	out := make([]Level, len(e.levels))
	for i, lv := range e.levels {
		m, ok := clones[lv.Model]
		if !ok {
			m = lv.Model.Clone()
			clones[lv.Model] = m
		}
		out[i] = Level{Model: m, Thresholds: lv.Thresholds, Last: lv.Last}
	}
	return out
}

// ClassifyOne labels a single frame with a full trace — the per-frame walk:
// the frame, encoded to its record, descends the cascade alone, each distinct
// representation derived into a fresh image. The batched runs are held
// bit-identical to it. It scores on the engine's own models and is not safe
// for concurrent use; use Run for parallel work.
func (e *Engine) ClassifyOne(src *img.Image) (bool, Trace, error) {
	var tr Trace
	rec, _, err := encode(nil, src)
	if err != nil {
		return false, tr, err
	}
	reps := make([]*img.Image, len(e.repIDs))
	for li := range e.levels {
		lv := &e.levels[li]
		slot := e.slot[li]
		if reps[slot] == nil {
			reps[slot], _ = e.repXf[slot].ApplyRecord(nil, nil, rec)
			tr.RepsCreated = append(tr.RepsCreated, e.repIDs[slot])
		}
		score, err := lv.Model.Score(reps[slot])
		if err != nil {
			return false, tr, err
		}
		tr.LevelsRun++
		tr.Scores = append(tr.Scores, score)
		if lv.Last {
			return score >= 0.5, tr, nil
		}
		if decided, positive := lv.Thresholds.Decide(score); decided {
			return positive, tr, nil
		}
	}
	// Unreachable: New guarantees a deciding last level. Guard anyway.
	return false, tr, fmt.Errorf("exec: no level decided (malformed cascade)")
}

// serving is run-scoped RepSource state: the source plus the per-slot
// serve-or-transform decision, fixed before the first batch so results are
// independent of worker count and batch size. A nil *serving means every
// slot is transformed.
type serving struct {
	rs     RepSource
	recs   RepRecordSource // rs, when it serves stored records
	served []bool          // per slot
}

// on reports whether slot is served by the RepSource.
func (sv *serving) on(slot int) bool { return sv != nil && sv.served[slot] }

// needSource reports whether any slot still requires the decoded source.
func (sv *serving) needSource() bool {
	if sv == nil {
		return true
	}
	for _, s := range sv.served {
		if !s {
			return true
		}
	}
	return false
}

// newServing resolves the per-slot decisions for one run; nil when rs is nil
// or serves none of the planned transforms.
func newServing(rs RepSource, repIDs []string) *serving {
	if rs == nil {
		return nil
	}
	served := make([]bool, len(repIDs))
	any := false
	for s, id := range repIDs {
		served[s] = rs.HasRep(id)
		any = any || served[s]
	}
	if !any {
		return nil
	}
	recs, _ := rs.(RepRecordSource)
	return &serving{rs: rs, recs: recs, served: served}
}

// worker is one goroutine's private execution state, pooled on the engine so
// repeated runs reach a steady state with no per-frame allocations: model
// clones, the survivor bookkeeping, and the pooled representation and record
// buffers. All batch-indexed scratch is sized to the largest batch seen.
type worker struct {
	levels  []Level
	recs    []img.Record   // source records of the current batch
	enc     [][]byte       // [pos] records encoded from an image-form Source
	und     []int          // undecided positions, compacted level by level
	need    []int          // undecided positions whose slot is not yet filled
	rows    []int          // frame indices of need, for a RepRecords call
	got     []img.Record   // [k] the served record of need[k], empty if none
	gather  []*img.Image   // representations of the undecided frames
	scores  []float32      // ScoreBatch output
	reps    [][]*img.Image // [slot][pos] pooled representation buffers
	repOK   [][]bool       // [slot][pos] materialized for the current batch?
	served  [][]byte       // [k] a served image's record, encoded at the boundary
	derived []byte         // the record a slot is derived into
}

// ensure grows the scratch to batch capacity n.
func (w *worker) ensure(n, nslots int) {
	if cap(w.recs) < n {
		w.recs = make([]img.Record, n)
		w.und = make([]int, n)
		w.need = make([]int, n)
		w.rows = make([]int, n)
		w.got = make([]img.Record, n)
		w.gather = make([]*img.Image, n)
		w.scores = make([]float32, n)
		enc := make([][]byte, n)
		copy(enc, w.enc)
		w.enc = enc
		served := make([][]byte, n)
		copy(served, w.served)
		w.served = served
	}
	if w.reps == nil {
		w.reps = make([][]*img.Image, nslots)
		w.repOK = make([][]bool, nslots)
	}
	for s := range w.reps {
		if cap(w.reps[s]) < n {
			grown := make([]*img.Image, n)
			copy(grown, w.reps[s])
			w.reps[s] = grown
			w.repOK[s] = make([]bool, n)
		}
	}
}

// encode is the boundary where a float32 image becomes the record every path
// reads: im's TIMG record in buf, reused, and the buffer it aliases.
func encode(buf []byte, im *img.Image) (img.Record, []byte, error) {
	buf, err := img.AppendRecord(buf[:0], im)
	if err != nil {
		return img.Record{}, buf, err
	}
	rec, err := img.ParseRecord(buf)
	return rec, buf, err
}

// run bundles one run's immutable parameters.
type run struct {
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), taken once per run
	e       *Engine
	src     Source
	recSrc  RecordSource // src, when it holds stored records
	indices []int
	sv      *serving
	labels  []bool
}

// err is ctx's error once ctx is done, and nil before: a non-blocking
// receive on the Done channel the run took once, where ctx.Err() would lock
// the context's mutex at every per-frame check.
func (r *run) err() error {
	select {
	case <-r.done:
		return r.ctx.Err()
	default:
		return nil
	}
}

// load pins the source records of batch positions [a,b) — frames
// indices[lo+a:lo+b]: the source's own, read with one call, or each frame
// encoded into the worker's buffer for its position.
func (r *run) load(w *worker, lo, a, b int) error {
	if r.recSrc != nil {
		if err := r.recSrc.Records(r.ctx, r.indices[lo+a:lo+b], w.recs[a:b]); err != nil {
			if cerr := r.err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("exec: loading source frames: %w", err)
		}
		return nil
	}
	for j := a; j < b; j++ {
		if err := r.err(); err != nil {
			return err
		}
		im, err := r.src.Image(r.indices[lo+j])
		if err == nil {
			w.recs[j], w.enc[j], err = encode(w.enc[j], im)
		}
		if err != nil {
			return fmt.Errorf("exec: loading frame %d: %w", r.indices[lo+j], err)
		}
	}
	return nil
}

// serve reads slot's representation of every position of need (frames
// indices[lo+need[k]]) from the RepSource into w.got: the served records,
// read with one call, or each served image encoded into the worker's buffer
// for k. A representation the RepSource could not serve is left empty. Only
// ctx's error fails it.
func (r *run) serve(w *worker, lo, slot int, need []int) error {
	got := w.got[:len(need)]
	if r.sv.recs != nil {
		rows := w.rows[:len(need)]
		for k, j := range need {
			rows[k] = r.indices[lo+j]
		}
		// A failed read leaves its record empty, to be derived instead; the
		// error itself only matters when it is the run's cancellation.
		_ = r.sv.recs.RepRecords(r.ctx, r.e.repXf[slot], rows, got)
		return r.err()
	}
	for k, j := range need {
		if err := r.err(); err != nil {
			return err
		}
		got[k] = img.Record{}
		im, err := r.sv.rs.Rep(r.indices[lo+j], r.e.repIDs[slot])
		if err != nil {
			continue
		}
		var rec img.Record
		if rec, w.served[k], err = encode(w.served[k], im); err == nil {
			got[k] = rec
		}
	}
	return nil
}

// materialize fills slot for every undecided position that lacks it, in the
// worker's pooled buffers: each served record expanded, or the slot derived
// from the pinned source record and expanded (ApplyRecord). A position whose
// served read failed degrades to load + derive (the cache→inference ladder)
// instead of failing the run.
func (r *run) materialize(w *worker, st *BatchStats, lo, slot int, und []int) error {
	need := w.need[:0]
	for _, j := range und {
		if !w.repOK[slot][j] {
			need = append(need, j)
		}
	}
	if len(need) == 0 {
		return nil
	}
	served := r.sv.on(slot)
	got := w.got[:len(need)]
	if served {
		if err := r.serve(w, lo, slot, need); err != nil {
			return err
		}
	}
	xf := r.e.repXf[slot]
	for k, j := range need {
		rec := got[k]
		if served && rec.Pix != nil {
			st.RepHits++
		} else {
			// Deriving can stall on a big frame: check the ctx at the
			// per-derivation grain so a deadline fires promptly even inside
			// a large batch.
			if err := r.err(); err != nil {
				return err
			}
			if served {
				// The source is not loaded when every slot is served, so
				// load it on demand.
				if w.recs[j].Pix == nil {
					if err := r.load(w, lo, j, j+1); err != nil {
						return err
					}
				}
				st.RepFallbacks++
			}
			rec = w.recs[j]
			st.RepsMaterialized++
		}
		w.reps[slot][j], w.derived = xf.ApplyRecord(w.reps[slot][j], w.derived, rec)
		w.repOK[slot][j] = true
	}
	return nil
}

// runBatch is the engine's one inner loop, over positions [lo,hi) of the
// run's frame list. It loads the batch's source frames (when any slot still
// needs them), then walks the cascade level-major: the level's
// representation slot is materialized once per still-undecided frame — the
// first level to touch a (frame, slot) fills it, every later level reuses it
// — all undecided frames are scored with one batched call, thresholds are
// applied, and the survivor vector is compacted in place before descending.
// Each frame short-circuits at its earliest deciding level, so the (frame,
// level) pairs executed, the representations materialized and the labels
// are exactly those of the per-frame walk.
func (r *run) runBatch(w *worker, lo, hi int, st *BatchStats) error {
	n := hi - lo
	w.ensure(n, len(r.e.repIDs))
	defer w.release(n)
	for s := range w.repOK {
		ok := w.repOK[s][:n]
		for j := range ok {
			ok[j] = false
		}
	}
	if r.sv.needSource() {
		if err := r.load(w, lo, 0, n); err != nil {
			return err
		}
	}
	und := w.und[:n]
	for j := range und {
		und[j] = j
	}
	for li := range w.levels {
		if err := r.err(); err != nil {
			return err
		}
		lv := &w.levels[li]
		slot := r.e.slot[li]
		if err := r.materialize(w, st, lo, slot, und); err != nil {
			return err
		}
		gather := w.gather[:0]
		for _, j := range und {
			gather = append(gather, w.reps[slot][j])
		}
		scores := w.scores[:len(und)]
		if err := lv.Model.ScoreBatchInto(gather, scores); err != nil {
			// Re-score frame by frame to attribute the failure to a corpus
			// index (the batch error only knows gather positions). Cold path:
			// scoring errors abort the whole run.
			for i, j := range und {
				if _, ferr := lv.Model.Score(gather[i]); ferr != nil {
					return fmt.Errorf("exec: frame %d: level %d: %w", r.indices[lo+j], li, ferr)
				}
			}
			return fmt.Errorf("exec: level %d: %w", li, err)
		}
		st.LevelsRun += len(und)
		if lv.Last {
			for i, j := range und {
				r.labels[lo+j] = scores[i] >= 0.5
			}
			return nil
		}
		keep := und[:0]
		for i, j := range und {
			if decided, positive := lv.Thresholds.Decide(scores[i]); decided {
				r.labels[lo+j] = positive
			} else {
				keep = append(keep, j)
			}
		}
		und = keep
		if len(und) == 0 {
			return nil
		}
	}
	// Unreachable: New guarantees a deciding last level. Guard anyway.
	return fmt.Errorf("exec: no level decided (malformed cascade)")
}

// release unpins the source records a batch borrowed, on every exit path: the
// worker goes back into the pool even when a batch fails, and must not keep
// a source's records reachable for the engine's lifetime. Its byte and
// representation buffers it keeps — every one is its own.
func (w *worker) release(n int) {
	clear(w.recs[:n])
	clear(w.got[:n])
}

// Run classifies the frames of src named by indices (nil = all). Labels are
// positional: Labels[j] is the label of src frame indices[j]. Results are
// bit-identical regardless of worker count and batch size; only the stats'
// batch boundaries and wall times vary.
func (e *Engine) Run(src Source, indices []int, opts Options) (*Report, error) {
	return e.RunContext(context.Background(), src, indices, opts)
}

// RunContext is Run with cooperative cancellation. Batches are dealt to
// share-nothing workers, each preparing and scoring its own. Workers check
// ctx between batches (and the inner loop between levels and slot fills), so
// a cancelled or deadlined run returns promptly with ctx's error and a
// partial Report whose Cancelled flag is set — the partial labels must never
// be cached or merged. A panic in any worker (a misbehaving model, an
// injected fault) is contained to the run and surfaces as a *PanicError
// instead of crashing the process.
func (e *Engine) RunContext(ctx context.Context, src Source, indices []int, opts Options) (*Report, error) {
	opts = opts.normalized()
	if indices == nil {
		indices = make([]int, src.Len())
		for i := range indices {
			indices[i] = i
		}
	}
	start := time.Now()
	rep := &Report{Labels: make([]bool, len(indices))}
	sv := newServing(opts.RepSource, e.repIDs)
	if len(indices) == 0 {
		rep.Wall = time.Since(start)
		return rep, nil
	}

	numBatches := (len(indices) + opts.Batch - 1) / opts.Batch
	rep.Batches = make([]BatchStats, numBatches)
	for b := range rep.Batches {
		lo := b * opts.Batch
		hi := min(lo+opts.Batch, len(indices))
		rep.Batches[b] = BatchStats{Start: lo, Frames: hi - lo}
	}
	recSrc, _ := src.(RecordSource)
	r := &run{ctx: ctx, done: ctx.Done(), e: e, src: src, recSrc: recSrc, indices: indices, sv: sv, labels: rep.Labels}

	// Goroutine w of the fan-out classifies with engine worker ws[w]. After
	// the first failed batch no new batch starts: a failed run is doomed.
	ws := make([]*worker, par.Workers(opts.Workers, numBatches))
	for i := range ws {
		ws[i] = e.takeWorker()
	}
	runErr := par.Do(numBatches, len(ws), func(w, b int) error {
		if err := r.err(); err != nil {
			return err
		}
		st := &rep.Batches[b]
		t0 := time.Now()
		// The recover wall converts a panicking batch into a failed run:
		// runBatch's deferred release runs first, so containment never leaks
		// engine state.
		err := runProtected(func() error {
			if ferr := faults.Fire(faults.ExecWorkerPanic); ferr != nil {
				return ferr
			}
			return r.runBatch(ws[w], st.Start, st.Start+st.Frames, st)
		})
		st.Wall = time.Since(t0)
		return err
	})
	for _, w := range ws {
		e.parkWorker(w)
	}
	if runErr != nil && !canceled(runErr) {
		return nil, runErr
	}

	for b := range rep.Batches {
		st := &rep.Batches[b]
		rep.Frames += st.Frames
		rep.LevelsRun += st.LevelsRun
		rep.RepsMaterialized += st.RepsMaterialized
		rep.RepHits += st.RepHits
		rep.RepFallbacks += st.RepFallbacks
	}
	for _, l := range rep.Labels {
		if l {
			rep.Positives++
		}
	}
	rep.Wall = time.Since(start)
	if secs := rep.Wall.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.Frames) / secs
	}
	if runErr != nil {
		// Cancelled: hand the partial report back alongside ctx's error so the
		// caller can observe progress, flagged so it is never cached or merged.
		rep.Cancelled = true
		return rep, runErr
	}
	return rep, nil
}

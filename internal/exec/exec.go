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
// batches and hands them to share-nothing workers: each worker loads its
// batch's source frames — in the physical form the Source holds them, stored
// records for a store-backed corpus (RecordSource), decoded images otherwise
// — then walks the cascade level-major: materialize the level's slot for the
// still-undecided frames into pooled buffers (one pass straight from a
// record's bytes, or ApplyInto over an image; the samples are identical),
// score them with one batched inference call, apply the thresholds, compact
// the survivors — so every frame still short-circuits at its earliest
// deciding level. Labels and accounting are bit-identical to the per-frame
// walk (ClassifyOne) at every worker count and batch size; per-batch and
// per-run stats let callers compare measured throughput against the
// evaluator's analytic estimate.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/model"
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

// Source supplies source frames by row index. vdb's Corpus satisfies it
// directly, so the query executor classifies straight out of the corpus
// (in-memory or store-backed) without copying.
type Source interface {
	Len() int
	Image(i int) (*img.Image, error)
}

// RecordSource is optionally implemented by Sources whose frames are held as
// stored TIMG records (vdb's store-backed corpus). A run over one takes the
// byte-domain load path: each batch pins its frames' records instead of
// decoded images and every representation is transformed straight from the
// record's bytes (xform.Transform.ApplyRecord), so no float32 source image is
// ever built. Which path a run takes is decided by what its input is, once
// per run; representations, labels and accounting are bit-identical either
// way.
type RecordSource interface {
	Source
	// Record returns the stored record of frame i: resident, shared and
	// immutable, valid for as long as the caller references it. Must be safe
	// for concurrent use.
	Record(i int) (img.Record, error)
}

// RepSource serves pre-materialized physical representations by source frame
// index and transform identity (xform.Transform.ID). When a run has one, the
// engine skips both the source decode and the transform for every slot the
// source covers — the representation-store fast path the ARCHIVE and ONGOING
// scenarios price. Implementations must be safe for concurrent use. The
// engine only reads what it is served: a served image's pixels are copied
// into a buffer the worker owns, so every buffer a batch scores is the
// engine's own. A source that holds stored records should also implement
// RepRecordSource, which skips the float32 image altogether.
//
// Served pixels are whatever the source stored (for repstore, the uint8-
// quantized record), not a fresh transform of the decoded source, so labels
// can legitimately differ from a RepSource-less run. Serving is decided once
// per slot per run, so results remain deterministic and independent of
// worker count and batch size.
type RepSource interface {
	// HasRep reports whether representations of transform id can be
	// served. The engine consults it once per run per slot; availability must
	// not change during a run.
	HasRep(id string) bool
	// Rep returns the representation of source frame i under transform id.
	Rep(i int, id string) (*img.Image, error)
}

// RepRecordSource is optionally implemented by RepSources whose
// representations are held as stored TIMG records (vdb's store-backed
// corpus). A run over one reads a served slot's record and expands it into
// the worker's buffer with xform.Transform.ApplyRecord — for a record of the
// transform's own geometry one img.Unit pass, the exact bits Rep's decoded
// image would hold — so the source keeps a quarter of the bytes. Detected
// once per run, like RecordSource; Rep is then never called.
type RepRecordSource interface {
	RepSource
	// RepRecord returns the stored record of source frame i's representation
	// under t: resident, shared and immutable. Must be safe for concurrent
	// use.
	RepRecord(i int, t xform.Transform) (img.Record, error)
}

// Frames adapts an in-memory slice to Source.
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
	// the transforms it covers: served slots skip decode and transform
	// entirely and are counted as RepHits instead of RepsMaterialized.
	RepSource RepSource
	// Quantize is ignored: every level scores float32.
	//
	// Deprecated: see QuantMode; delete it when a harness PR drops the calls.
	Quantize QuantMode
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
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
	// were degraded to decode + transform instead of failing the run (they
	// also count in RepsMaterialized — a transform really ran).
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

// Reps returns the planned representation slots: the distinct transform
// identities of the cascade's levels, in first-use order.
func (e *Engine) Reps() []string { return append([]string(nil), e.repIDs...) }

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

// ClassifyOne labels a single frame with a full trace — the per-frame
// reference walk: one frame descends the cascade alone, float32,
// materializing each distinct representation into a fresh image. The batched
// runs are held bit-identical to it. It scores on the engine's own models
// and is not safe for concurrent use; use Run for parallel work.
func (e *Engine) ClassifyOne(src *img.Image) (bool, Trace, error) {
	var tr Trace
	reps := make([]*img.Image, len(e.repIDs))
	for li := range e.levels {
		lv := &e.levels[li]
		slot := e.slot[li]
		if reps[slot] == nil {
			reps[slot] = lv.Model.Xform.Apply(src)
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
// clones, the survivor bookkeeping, and the pooled representation buffers
// that the transforms materialize into. All batch-indexed scratch is sized to
// the largest batch seen.
type worker struct {
	levels []Level
	srcs   []*img.Image   // source frames of the current batch (image-backed runs)
	recs   []img.Record   // record-backed runs pin these instead of srcs
	und    []int          // undecided positions, compacted level by level
	gather []*img.Image   // representations of the undecided frames
	scores []float32      // ScoreBatch output
	reps   [][]*img.Image // [slot][pos] pooled representation buffers
	repOK  [][]bool       // [slot][pos] materialized for the current batch?
	proj   []*img.Image   // [slot] projection scratch for ApplyInto
}

// ensure grows the scratch to batch capacity n.
func (w *worker) ensure(n, nslots int) {
	if cap(w.srcs) < n {
		w.srcs = make([]*img.Image, n)
		w.recs = make([]img.Record, n)
		w.und = make([]int, n)
		w.gather = make([]*img.Image, n)
		w.scores = make([]float32, n)
	}
	if w.reps == nil {
		w.reps = make([][]*img.Image, nslots)
		w.repOK = make([][]bool, nslots)
		w.proj = make([]*img.Image, nslots)
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

// run bundles one run's immutable parameters.
type run struct {
	ctx     context.Context
	e       *Engine
	src     Source
	recSrc  RecordSource // src, when it holds stored records: the byte-domain path
	indices []int
	sv      *serving
	labels  []bool
}

// loadSource pins frame idx at batch position j in whichever form the run's
// source holds it: the stored record, or the decoded image.
func (r *run) loadSource(w *worker, j, idx int) (err error) {
	if r.recSrc != nil {
		w.recs[j], err = r.recSrc.Record(idx)
	} else {
		w.srcs[j], err = r.src.Image(idx)
	}
	return err
}

// transform materializes slot for batch position j from the pinned source
// into the worker's pooled buffer — one fused pass over the record's bytes,
// or ApplyInto over the decoded image. The two produce identical samples.
func (r *run) transform(w *worker, slot, j int) {
	bufs := w.reps[slot]
	if r.recSrc != nil {
		bufs[j] = r.e.repXf[slot].ApplyRecord(bufs[j], w.recs[j])
	} else {
		bufs[j], w.proj[slot] = r.e.repXf[slot].ApplyInto(bufs[j], w.srcs[j], w.proj[slot])
	}
}

// serve fills slot for batch position j from the RepSource into the worker's
// pooled buffer: a stored record expanded in place, or a served image's
// pixels copied. Either way the buffer the batch scores is the worker's own.
func (r *run) serve(w *worker, slot, j, idx int) error {
	bufs := w.reps[slot]
	if r.sv.recs != nil {
		rec, err := r.sv.recs.RepRecord(idx, r.e.repXf[slot])
		if err != nil {
			return err
		}
		bufs[j] = r.e.repXf[slot].ApplyRecord(bufs[j], rec)
		return nil
	}
	im, err := r.sv.rs.Rep(idx, r.e.repIDs[slot])
	if err != nil {
		return err
	}
	if dst := bufs[j]; dst == nil || dst.W != im.W || dst.H != im.H || dst.Mode != im.Mode {
		bufs[j] = img.New(im.W, im.H, im.Mode)
	}
	copy(bufs[j].Pix, im.Pix)
	return nil
}

// materialize fills slot for batch position j (frame indices[lo+j]): served
// from the RepSource, or transformed from the pinned source into the worker's
// pooled buffer.
func (r *run) materialize(w *worker, st *BatchStats, lo, slot, j int) error {
	// Serving and transforming can both stall (slow store, big frame);
	// check the ctx at the same per-slot-fill grain so a deadline fires
	// promptly even inside a large batch.
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.sv.on(slot) {
		idx := r.indices[lo+j]
		if err := r.serve(w, slot, j, idx); err != nil {
			// Serving failed: degrade to load + transform (the
			// cache→inference ladder) instead of failing the run. The source
			// may not have been loaded when every slot is served, so load it
			// on demand.
			if w.srcs[j] == nil && w.recs[j].Pix == nil {
				if err := r.loadSource(w, j, idx); err != nil {
					return fmt.Errorf("exec: frame %d: loading source for rep fallback: %w", idx, err)
				}
			}
			r.transform(w, slot, j)
			st.RepFallbacks++
			st.RepsMaterialized++
		} else {
			st.RepHits++
		}
	} else {
		r.transform(w, slot, j)
		st.RepsMaterialized++
	}
	w.repOK[slot][j] = true
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
		for j := 0; j < n; j++ {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			if err := r.loadSource(w, j, r.indices[lo+j]); err != nil {
				return fmt.Errorf("exec: loading frame %d: %w", r.indices[lo+j], err)
			}
		}
	}
	und := w.und[:n]
	for j := range und {
		und[j] = j
	}
	for li := range w.levels {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		lv := &w.levels[li]
		slot := r.e.slot[li]
		gather := w.gather[:0]
		for _, j := range und {
			if !w.repOK[slot][j] {
				if err := r.materialize(w, st, lo, slot, j); err != nil {
					return err
				}
			}
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

// release unpins the source frames a batch borrowed, on every exit path: the
// worker goes back into the pool even when a batch fails, and must not keep
// source frames reachable for the engine's lifetime. Its representation
// buffers it keeps — every one is its own, served or transformed.
func (w *worker) release(n int) {
	for j := 0; j < n; j++ {
		w.srcs[j] = nil
		w.recs[j] = img.Record{}
	}
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
	jobs := make(chan int, numBatches)
	for b := range rep.Batches {
		lo := b * opts.Batch
		hi := min(lo+opts.Batch, len(indices))
		rep.Batches[b] = BatchStats{Start: lo, Frames: hi - lo}
		jobs <- b
	}
	close(jobs)
	recSrc, _ := src.(RecordSource)
	r := &run{ctx: ctx, e: e, src: src, recSrc: recSrc, indices: indices, sv: sv, labels: rep.Labels}

	workers := min(opts.Workers, numBatches)
	errs := make(chan error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.takeWorker()
			defer e.parkWorker(w)
			for b := range jobs {
				// A failed run is doomed: drain instead of classifying the
				// remaining batches.
				if failed.Load() {
					continue
				}
				st := &rep.Batches[b]
				err := ctx.Err()
				if err == nil {
					t0 := time.Now()
					// The recover wall converts a panicking batch into a
					// failed run: runBatch's deferred release runs first, so
					// containment never leaks engine state.
					err = runProtected(func() error {
						if ferr := faults.Fire(faults.ExecWorkerPanic); ferr != nil {
							return ferr
						}
						return r.runBatch(w, st.Start, st.Start+st.Frames, st)
					})
					st.Wall = time.Since(t0)
				}
				if err != nil {
					failed.Store(true)
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	var runErr error
	select {
	case runErr = <-errs:
	default:
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

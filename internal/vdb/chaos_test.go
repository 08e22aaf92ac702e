package vdb

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/leakcheck"
	"tahoma/internal/matstore"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
)

// The chaos suite drives the full query path through every fault-injection
// point and asserts the robustness contract: a fault becomes a typed error
// or a graceful degradation — never a process exit, a hang, or a silently
// wrong label — and a retry after the fault clears is bit-identical.

const chaosSQL = "SELECT id FROM images WHERE contains_object('cloak')"

var chaosCons = core.Constraints{MaxAccuracyLoss: 0.05}

// chaosStore builds an on-disk corpus (sources plus the full design grid of
// representations) and returns a factory for fresh DBs over it, so each
// scenario starts with a cold cache.
func chaosStore(t *testing.T) (build func(serveReps bool) *DB, nrows int) {
	t.Helper()
	cat, err := synth.CategoryByName("cloak")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Initialize("cloak", splits, core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	grid := xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray})
	store, err := repstore.Create(t.TempDir(), 16, 16, grid)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var images []*img.Image
	var meta []Metadata
	for i, e := range splits.Eval.Examples {
		images = append(images, e.Image)
		meta = append(meta, Metadata{ID: int64(i), Location: "disk", TS: int64(i)})
	}
	if err := store.IngestAll(images); err != nil {
		t.Fatal(err)
	}
	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Archive, params)
	if err != nil {
		t.Fatal(err)
	}
	return func(serveReps bool) *DB {
		db := New(cm)
		if err := db.LoadCorpusFromStore(store, 1<<20, meta); err != nil {
			t.Fatal(err)
		}
		if err := db.InstallPredicate("cloak", sys, 2); err != nil {
			t.Fatal(err)
		}
		db.ServeReps(serveReps)
		return db
	}, len(meta)
}

func chaosRows(t *testing.T, res *Result) map[int64]bool {
	t.Helper()
	out := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].Int] = true
	}
	return out
}

func sameRows(t *testing.T, what string, got, want map[int64]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("%s: row %d missing", what, id)
		}
	}
}

// TestFaultStoreDecodeTypedError: a failing source decode surfaces as a
// typed error naming the record — not a panic, not a wrong answer — and the
// path recovers completely once the fault clears.
func TestFaultStoreDecodeTypedError(t *testing.T) {
	defer faults.Reset()
	build, _ := chaosStore(t)

	db := build(false)
	if err := faults.Enable(faults.StoreDecode, faults.Spec{}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(chaosSQL, chaosCons)
	if err == nil {
		t.Fatal("query over a store that cannot decode must fail")
	}
	if !strings.Contains(err.Error(), "source record") {
		t.Fatalf("error does not name the failing record: %v", err)
	}
	faults.Reset()

	res, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatalf("after fault cleared: %v", err)
	}
	want, err := build(false).Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-fault retry", chaosRows(t, res), chaosRows(t, want))
}

// TestFaultRepReadDegradesToInference: when every representation read from
// the store fails, queries degrade to decoding the source and transforming
// fresh — same labels as the plain inference path, RepFallbacks counted,
// no error surfaced.
func TestFaultRepReadDegradesToInference(t *testing.T) {
	defer faults.Reset()
	build, _ := chaosStore(t)

	// Baseline: the plain inference path (decode + transform), which is
	// exactly what the degradation ladder falls back to.
	want, err := build(false).Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy serving path sanity: reps come from the store.
	healthy, err := build(true).Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.RepHits == 0 {
		t.Fatal("healthy serving run loaded no reps from the store")
	}
	if healthy.RepFallbacks != 0 {
		t.Fatalf("healthy serving run reported %d fallbacks", healthy.RepFallbacks)
	}

	if err := faults.Enable(faults.StoreRepRead, faults.Spec{}); err != nil {
		t.Fatal(err)
	}
	res, err := build(true).Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatalf("rep-read failure must degrade, not error: %v", err)
	}
	if res.RepFallbacks == 0 {
		t.Fatal("degraded run reported no RepFallbacks")
	}
	sameRows(t, "degraded run", chaosRows(t, res), chaosRows(t, want))
}

// TestFaultRepSlowDeadlineCancels: a deadline on a query stuck behind a slow
// representation source fires within 2x the deadline — cooperative
// cancellation reaches the engine's inner loops — and the cancelled query's
// labels never enter the materialized columns: a clean retry is
// bit-identical to a never-faulted run.
func TestFaultRepSlowDeadlineCancels(t *testing.T) {
	defer faults.Reset()
	build, _ := chaosStore(t)

	db := build(true)
	// Two workers make the slow reads serialize: 40 frames x 50ms >> the
	// deadline, so the query cannot finish by racing the clock.
	db.SetExecOptions(exec.Options{Workers: 2})
	if err := faults.Enable(faults.StoreRepSlow, faults.Spec{Delay: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	_, err := db.QueryContext(ctx, chaosSQL, chaosCons)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("cancelled query took %v, want <= %v", elapsed, 2*deadline)
	}
	faults.Reset()

	// Retry after cancellation: bit-identical to a run that never faulted.
	res, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	want, err := build(true).Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "retry after cancel", chaosRows(t, res), chaosRows(t, want))
}

// TestFaultWorkerPanicContained: a panicking exec worker fails only its
// query — the panic value and stack surface as a typed *exec.PanicError —
// and once the fault budget is spent the same DB answers correctly.
func TestFaultWorkerPanicContained(t *testing.T) {
	defer faults.Reset()
	db, _ := buildTestDB(t)
	if err := faults.Enable(faults.ExecWorkerPanic, faults.Spec{Panic: true, Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := db.Query(chaosSQL, chaosCons)
	if err == nil {
		t.Fatal("query with a panicking worker must fail")
	}
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *exec.PanicError in chain, got %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("contained panic lost its stack")
	}

	// The fault self-disarmed (Times: 1); the same DB now answers, and the
	// failed attempt must not have cached partial labels: results match a
	// DB that never saw the panic.
	res, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatalf("after panic budget spent: %v", err)
	}
	clean, _ := buildTestDB(t)
	want, err := clean.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-panic retry", chaosRows(t, res), chaosRows(t, want))
}

// armingCorpus is an in-memory corpus that arms a fault point on its armAt-th
// source load, so a test can fail a specific engine run of a multi-run
// operation (the process-global registry only bounds how often a point
// fires, not when it starts).
type armingCorpus struct {
	*memoryCorpus
	loads atomic.Int64
	armAt int64
	point string
	spec  faults.Spec
}

func (c *armingCorpus) Record(i int) (img.Record, error) {
	if c.loads.Add(1) == c.armAt {
		if err := faults.Enable(c.point, c.spec); err != nil {
			return img.Record{}, err
		}
	}
	return c.memoryCorpus.Record(i)
}

// TestFaultTriggerWorkerPanic pins the ingest trigger's failure semantics: a
// worker panic during one predicate's trigger run surfaces from Append as a
// typed *exec.PanicError, that predicate publishes nothing — not even the
// batches that completed before the panic — while predicates that finished
// earlier keep their labels and udfCalls counts exactly those, and a
// follow-up Append backfills the gap to columns bit-identical to a DB that
// never saw the fault.
func TestFaultTriggerWorkerPanic(t *testing.T) {
	defer faults.Reset()
	cons := core.Constraints{MaxAccuracyLoss: 0}
	build := func() *DB {
		db := buildSysDB(t)
		// One worker, small batches: every trigger run is several batches,
		// and source loads happen in a deterministic order.
		db.SetExecOptions(exec.Options{Workers: 1, Batch: 8})
		db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: cons})
		return db
	}
	first := []*img.Image{img.New(16, 16, img.RGB), img.New(16, 16, img.RGB)}
	firstMeta := []Metadata{{ID: 100, TS: 1000}, {ID: 101, TS: 1001}}
	second := []*img.Image{img.New(16, 16, img.RGB)}
	secondMeta := []Metadata{{ID: 102, TS: 1002}}
	triggerKeys := func(db *DB) []matstore.Key {
		var keys []matstore.Key
		for _, pred := range db.predicates {
			point, err := core.Select(pred.Frontier, cons)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, matKey(pred, pred.Results[point.Index].Spec))
		}
		return keys
	}

	clean := build()
	rows := clean.Count() + len(first)
	if calls, err := clean.Append(first, firstMeta); err != nil || calls != 3*rows {
		t.Fatalf("un-faulted trigger append: %d calls, %v; want %d", calls, err, 3*rows)
	}
	if calls, err := clean.Append(second, secondMeta); err != nil || calls != 3 {
		t.Fatalf("un-faulted incremental append: %d calls, %v; want 3", calls, err)
	}

	// The first predicate's run loads `rows` sources; load rows+9 belongs to
	// the second run's second batch (batches are 8 frames), so the panic
	// lands on that run's third batch — after it has labeled whole batches
	// internally, none of which may be published.
	db := build()
	db.corpus = &armingCorpus{
		memoryCorpus: db.corpus.(*memoryCorpus),
		armAt:        int64(rows) + 9,
		point:        faults.ExecWorkerPanic,
		spec:         faults.Spec{Panic: true, Times: 1},
	}
	calls, err := db.Append(first, firstMeta)
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *exec.PanicError from the trigger run, got %v", err)
	}
	if calls != rows {
		t.Fatalf("failed append reported %d classifications, want the %d the finished predicate merged", calls, rows)
	}
	covered := 0
	for _, k := range triggerKeys(db) {
		switch n := db.mat.Coverage(k); n {
		case rows:
			covered++
		case 0:
		default:
			t.Fatalf("column %v holds %d/%d labels: a failed trigger run published partial labels", k, n, rows)
		}
	}
	if covered != 1 {
		t.Fatalf("%d predicates fully covered after the failed append, want exactly the 1 that finished first", covered)
	}

	// The fault spent itself; the next append backfills the two predicates
	// that published nothing, plus the new row for all three.
	calls, err = db.Append(second, secondMeta)
	if err != nil {
		t.Fatalf("append after the panic budget was spent: %v", err)
	}
	if want := 2*rows + 3; calls != want {
		t.Fatalf("backfilling append classified %d rows, want %d", calls, want)
	}
	for _, k := range triggerKeys(db) {
		got, want := db.mat.Columns().Get(k), clean.mat.Columns().Get(k)
		for i := 0; i < rows+1; i++ {
			if !got.Valid(i) || !want.Valid(i) || got.Label(i) != want.Label(i) {
				t.Fatalf("column %v row %d: (valid %v, label %v) after the fault, (valid %v, label %v) un-faulted",
					k, i, got.Valid(i), got.Label(i), want.Valid(i), want.Label(i))
			}
		}
	}
	res, err := db.Query("SELECT id FROM images WHERE contains_object('cloak') AND contains_object('coho')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 0 {
		t.Fatalf("query after the backfill ran %d classifications, want 0", res.UDFCalls)
	}
}

// TestCancelMidFlightNoLeak: cancelling a query mid-flight leaves no worker
// goroutines behind (checked under -race by the leak detector) and the DB
// keeps serving.
func TestCancelMidFlightNoLeak(t *testing.T) {
	defer faults.Reset()
	leakcheck.Check(t)
	build, _ := chaosStore(t)
	db := build(true)
	db.SetExecOptions(exec.Options{Workers: 2})
	if err := faults.Enable(faults.StoreRepSlow, faults.Spec{Delay: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(40 * time.Millisecond)
		cancel()
	}()
	if _, err := db.QueryContext(ctx, chaosSQL, chaosCons); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	faults.Reset()
	if _, err := db.Query(chaosSQL, chaosCons); err != nil {
		t.Fatalf("DB unusable after cancelled query: %v", err)
	}
}

// TestCancelAnalyzerShutdownNoLeak: stopping the analyzer mid-batch (its
// ctx cancels the in-flight engine run) exits deterministically with no
// goroutines left behind.
func TestCancelAnalyzerShutdownNoLeak(t *testing.T) {
	defer faults.Reset()
	leakcheck.Check(t)
	db, _ := buildTestDB(t)
	// Seed the usage table so the analyzer has a target, then slow the
	// engine down with a per-frame delay so Stop lands mid-batch.
	if _, err := db.Query(chaosSQL, chaosCons); err != nil {
		t.Fatal(err)
	}
	stop, err := db.StartAnalyzer(context.Background(), AnalyzerOptions{
		Interval: time.Millisecond, BatchRows: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	stop()
	if _, err := db.Query(chaosSQL, chaosCons); err != nil {
		t.Fatalf("DB unusable after analyzer shutdown: %v", err)
	}
}

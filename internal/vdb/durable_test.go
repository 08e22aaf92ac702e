package vdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/leakcheck"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/wal"
	"tahoma/internal/xform"
)

// The durability suite exercises the vdb recovery contract end to end:
// acknowledged appends survive any crash point (simulated by abandoning a
// live DB and re-opening its store + journal from disk), recovery from a
// journal cut at an arbitrary byte offset yields exactly a prefix of the
// acknowledged batches, and repeat queries over recovered state are
// bit-identical to queries over a corpus that never crashed.

// durEnv is the shared fixture: one trained system plus the full ingestion
// stream (images and metadata in ingest order), so tests can create stores
// holding any prefix and append the rest through the durable path.
type durEnv struct {
	sys    *core.System
	cm     *scenario.Analytic
	grid   []xform.Transform
	images []*img.Image
	metas  []Metadata
}

// durSetup returns the fixture. The system and the images are built once per
// test binary and only ever read; the metadata rows are the test's own copy,
// because a DB loaded with a prefix of them appends into the same array.
func durSetup(t testing.TB) *durEnv {
	t.Helper()
	shared, err := durEnvOnce()
	if err != nil {
		t.Fatal(err)
	}
	env := *shared
	env.metas = slices.Clone(shared.metas)
	return &env
}

var durEnvOnce = sync.OnceValues(func() (*durEnv, error) {
	cat, err := synth.CategoryByName("cloak")
	if err != nil {
		return nil, err
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	sys, err := core.Initialize("cloak", splits, core.TinyConfig())
	if err != nil {
		return nil, err
	}
	params := scenario.DefaultParams()
	params.SourceW, params.SourceH = 16, 16
	cm, err := scenario.NewAnalytic(scenario.Archive, params)
	if err != nil {
		return nil, err
	}
	env := &durEnv{
		sys:  sys,
		cm:   cm,
		grid: xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray}),
	}
	for i, e := range splits.Eval.Examples {
		env.images = append(env.images, e.Image)
		env.metas = append(env.metas, Metadata{ID: int64(i), Location: "disk", TS: int64(i)})
	}
	return env, nil
})

// createStore makes an on-disk corpus at dir holding the first n images.
func (env *durEnv) createStore(t testing.TB, dir string, n int) *repstore.Store {
	t.Helper()
	store, err := repstore.Create(dir, 16, 16, env.grid)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := store.IngestAll(env.images[:n]); err != nil {
		t.Fatal(err)
	}
	return store
}

func (env *durEnv) openStore(t testing.TB, dir string) *repstore.Store {
	t.Helper()
	store, err := repstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// newDB builds a DB over the store. installPred is optional because recovery
// itself never needs predicates — only queries do — and cascade evaluation is
// the expensive part of setup.
func (env *durEnv) newDB(t testing.TB, store *repstore.Store, metas []Metadata, installPred bool) *DB {
	t.Helper()
	db := New(env.cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, metas); err != nil {
		t.Fatal(err)
	}
	if installPred {
		if err := db.InstallPredicate("cloak", env.sys, 2); err != nil {
			t.Fatal(err)
		}
	}
	db.SetTriggerPolicy(TriggerPolicy{Enabled: true, Constraints: chaosCons})
	return db
}

// refRows computes the reference result for a corpus holding the first n
// rows — a store that never crashed — memoized per n.
func (env *durEnv) refRows(t *testing.T, cache map[int]map[int64]bool, n int) map[int64]bool {
	t.Helper()
	if rows, ok := cache[n]; ok {
		return rows
	}
	store := env.createStore(t, t.TempDir(), n)
	db := env.newDB(t, store, env.metas[:n], true)
	res, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	rows := chaosRows(t, res)
	cache[n] = rows
	return rows
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func placeholderMeta(n int) []Metadata { return make([]Metadata, n) }

// TestDurableRestartRecoversAppends: appends acknowledged by a durable DB
// survive an abrupt restart (the live DB is abandoned without a shutdown
// checkpoint), the journal replays them onto the baseline checkpoint, and a
// repeat query over the recovered DB is bit-identical — served from the
// recovered materialized columns, not re-inferred.
func TestDurableRestartRecoversAppends(t *testing.T) {
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 30)
	db := env.newDB(t, store, env.metas[:30], true)

	stats, err := db.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointLoaded {
		t.Fatal("fresh directory reported a loaded checkpoint")
	}
	if _, err := os.Stat(filepath.Join(walDir, checkpointName)); err != nil {
		t.Fatalf("first enable did not write a baseline checkpoint: %v", err)
	}

	// Two acknowledged batches through the write-ahead path (triggers on, so
	// merge records ride behind the append records).
	for _, r := range [][2]int{{30, 35}, {35, 40}} {
		if _, err := db.Append(env.images[r[0]:r[1]], env.metas[r[0]:r[1]]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: abandon the live DB, reopen everything from disk.
	store2 := env.openStore(t, storeDir)
	db2 := env.newDB(t, store2, placeholderMeta(store2.Count()), true)
	rstats, err := db2.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if !rstats.CheckpointLoaded {
		t.Fatal("recovery did not load the checkpoint")
	}
	if rstats.Replayed == 0 {
		t.Fatal("recovery replayed no journal records over two acknowledged appends")
	}
	if rstats.Rows != 40 {
		t.Fatalf("recovered %d rows, want 40", rstats.Rows)
	}
	if db2.Count() != 40 {
		t.Fatalf("recovered DB counts %d rows, want 40", db2.Count())
	}
	res, err := db2.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-recovery query", chaosRows(t, res), chaosRows(t, want))
	if !res.Bitmap && res.MatHits == 0 {
		t.Fatal("recovered query re-inferred everything: journaled labels were lost")
	}
	ds := db2.DurabilityStats()
	if !ds.Enabled || ds.WALReplayed != rstats.Replayed {
		t.Fatalf("durability stats inconsistent with recovery: %+v vs %+v", ds, rstats)
	}

	// The recovered DB keeps ingesting durably: one more batch round-trips
	// through yet another restart.
	extraIm := []*img.Image{env.images[0]}
	extraMeta := []Metadata{{ID: 1000, Location: "disk", TS: 1000}}
	if _, err := db2.Append(extraIm, extraMeta); err != nil {
		t.Fatalf("append on recovered DB: %v", err)
	}
	store3 := env.openStore(t, storeDir)
	db3 := env.newDB(t, store3, placeholderMeta(store3.Count()), false)
	rr, err := db3.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Rows != 41 {
		t.Fatalf("second recovery: %d rows, want 41", rr.Rows)
	}
}

// TestDurableCheckpointCollapsesReplay: after an explicit checkpoint, a
// restart replays nothing — the checkpoint alone reproduces the state — and
// results are still bit-identical.
func TestDurableCheckpointCollapsesReplay(t *testing.T) {
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 30)
	db := env.newDB(t, store, env.metas[:30], true)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(env.images[30:40], env.metas[30:40]); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	store2 := env.openStore(t, storeDir)
	db2 := env.newDB(t, store2, placeholderMeta(store2.Count()), true)
	rstats, err := db2.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Replayed != 0 {
		t.Fatalf("replayed %d records over a fresh checkpoint, want 0", rstats.Replayed)
	}
	if rstats.Rows != 40 {
		t.Fatalf("recovered %d rows, want 40", rstats.Rows)
	}
	res, err := db2.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "post-checkpoint recovery", chaosRows(t, res), chaosRows(t, want))
}

// TestAppendAfterCloseDurabilityLost: after CloseDurability an Append still
// commits its batch to the store, but no journal or checkpoint records its
// metadata, so a later EnableDurability on the same directory restores the
// checkpoint's rows and truncates the store back to them.
func TestAppendAfterCloseDurabilityLost(t *testing.T) {
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 30)
	db := env.newDB(t, store, env.metas[:30], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(env.images[30:35], env.metas[30:35]); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(env.images[35:40], env.metas[35:40]); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 40 {
		t.Fatalf("DB counts %d rows after the non-durable append, want 40", db.Count())
	}
	if n := env.openStore(t, storeDir).Count(); n != 40 {
		t.Fatalf("store on disk holds %d rows after the non-durable append, want 40: it commits the batch itself", n)
	}

	rstats, err := db.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if !rstats.CheckpointLoaded || rstats.Replayed != 0 || rstats.Rows != 35 {
		t.Fatalf("re-enable recovered %+v, want the closing checkpoint's 35 rows and no replay", rstats)
	}
	if db.Count() != 35 || store.Count() != 35 {
		t.Fatalf("after re-enable: DB %d rows, store %d rows, want 35 each", db.Count(), store.Count())
	}
	if n := env.openStore(t, storeDir).Count(); n != 35 {
		t.Fatalf("store on disk holds %d rows after re-enable, want 35", n)
	}
}

// TestDurableWALTruncationYieldsAckedPrefix is the recovery-atomicity
// property test: cut the journal at an arbitrary byte offset (a crash can
// stop a disk write anywhere) and recovery must yield exactly a prefix of
// the acknowledged append batches — never a partial batch, never an error —
// with queries over the recovered rows bit-identical to a corpus that held
// only those rows all along.
func TestDurableWALTruncationYieldsAckedPrefix(t *testing.T) {
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 20)
	db := env.newDB(t, store, env.metas[:20], true)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	batches := []int{3, 4, 5}
	valid := map[int]bool{20: true}
	n := 20
	for _, b := range batches {
		if _, err := db.Append(env.images[n:n+b], env.metas[n:n+b]); err != nil {
			t.Fatal(err)
		}
		n += b
		valid[n] = true
	}
	// A query adds lazy merge records to the journal tail, so truncation
	// offsets also land inside non-fsynced records.
	if _, err := db.Query(chaosSQL, chaosCons); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 journal segment, got %v (%v)", segs, err)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(walDir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}

	// The journal carries the batches' pixels, and every cut inside one
	// record's pixels recovers alike: cut densely around each frame boundary
	// (lengths, sequence numbers, metadata, checksums) and sparsely between.
	step, sparse := 3, 113
	if testing.Short() {
		step, sparse = 23, 499
	}
	bounds := walFrameBounds(t, blob)
	var offs []int
	for off, b := 0, 0; off <= len(blob); off++ {
		for b < len(bounds)-1 && bounds[b]+48 < off {
			b++
		}
		near := off >= bounds[b]-48 && off <= bounds[b]+48
		if off == len(blob) || (near && off%step == 0) || off%sparse == 0 {
			offs = append(offs, off)
		}
	}
	refCache := map[int]map[int64]bool{}
	prevRows := -1
	queried := 0
	for _, off := range offs {
		sdir, wdir := t.TempDir(), t.TempDir()
		copyDir(t, storeDir, sdir)
		if err := os.WriteFile(filepath.Join(wdir, filepath.Base(segs[0])), blob[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(wdir, checkpointName), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}

		// Query only when the recovered prefix changes (plus a sparse sample
		// of same-prefix offsets, which differ in surviving merge records):
		// cascade evaluation dominates, and the row-count property is the
		// per-offset invariant.
		st2 := env.openStore(t, sdir)
		probe := off%96 == 0
		db2 := env.newDB(t, st2, placeholderMeta(st2.Count()), true)
		rstats, err := db2.EnableDurability(DurabilityOptions{Dir: wdir})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		if !valid[rstats.Rows] {
			t.Fatalf("offset %d: recovered %d rows — not a batch prefix of %v", off, rstats.Rows, valid)
		}
		if rstats.Rows < prevRows {
			t.Fatalf("offset %d: recovered rows went backwards (%d after %d)", off, rstats.Rows, prevRows)
		}
		if rstats.Rows != prevRows || probe {
			res, err := db2.Query(chaosSQL, chaosCons)
			if err != nil {
				t.Fatalf("offset %d: query over recovered DB: %v", off, err)
			}
			sameRows(t, fmt.Sprintf("offset %d (%d rows)", off, rstats.Rows),
				chaosRows(t, res), env.refRows(t, refCache, rstats.Rows))
			queried++
		}
		prevRows = rstats.Rows
	}
	if prevRows != n {
		t.Fatalf("full-length journal recovered %d rows, want %d", prevRows, n)
	}
	if len(refCache) != len(valid) {
		t.Fatalf("recovery visited %d distinct prefixes, want %d", len(refCache), len(valid))
	}
	t.Logf("journal=%d bytes, offsets=%d (step %d near %d frame boundaries, %d between), queries checked=%d, prefixes=%d",
		len(blob), len(offs), step, len(bounds), sparse, queried, len(refCache))
}

// walFrameBounds returns the byte offset at which each frame of a journal
// segment starts, and the segment's end.
func walFrameBounds(t *testing.T, seg []byte) []int {
	t.Helper()
	const magic = 8
	var bounds []int
	off := magic
	for off+4 <= len(seg) {
		bounds = append(bounds, off)
		off += 4 + int(binary.LittleEndian.Uint32(seg[off:])) + 4
	}
	if off != len(seg) {
		t.Fatalf("journal segment does not end on a frame boundary (%d of %d bytes)", off, len(seg))
	}
	return append(bounds, len(seg))
}

// TestDurableRefusesJournalWithoutCheckpoint: journal records whose baseline
// checkpoint is missing cannot be replayed onto anything; enabling must fail
// loudly rather than guess.
func TestDurableRefusesJournalWithoutCheckpoint(t *testing.T) {
	env := durSetup(t)
	walDir := t.TempDir()
	l, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(1, []byte("orphaned")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	store := env.createStore(t, t.TempDir(), 8)
	db := env.newDB(t, store, env.metas[:8], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err == nil {
		t.Fatal("enable over an orphaned journal succeeded")
	} else if !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("refusal does not explain the missing checkpoint: %v", err)
	}
}

// TestDurableRefusesCorpusSwapAndDoubleEnable: while durable, the corpus is
// pinned (swapping it would orphan the journal) and a second enable is an
// error.
func TestDurableRefusesCorpusSwapAndDoubleEnable(t *testing.T) {
	env := durSetup(t)
	store := env.createStore(t, t.TempDir(), 8)
	db := env.newDB(t, store, env.metas[:8], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	ims := []*img.Image{img.New(16, 16, img.RGB)}
	if err := db.LoadCorpus(ims, env.metas[:1]); err == nil {
		t.Fatal("durable DB accepted a corpus swap")
	}
	if err := db.LoadCorpusFromStore(store, 1<<20, env.metas[:8]); err == nil {
		t.Fatal("durable DB accepted a store swap")
	}
	if _, err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err == nil {
		t.Fatal("second enable succeeded")
	}

	// An in-memory corpus can never be durable.
	mem := New(env.cm)
	if err := mem.LoadCorpus(env.images[:4], env.metas[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err == nil {
		t.Fatal("in-memory corpus enabled durability")
	}
}

// TestCheckpointerStopNoLeak: the background checkpointer checkpoints on its
// ticker, refuses a double start, and its stop function blocks until the
// goroutine is fully gone (leakcheck under -race).
func TestCheckpointerStopNoLeak(t *testing.T) {
	leakcheck.Check(t)
	env := durSetup(t)
	store := env.createStore(t, t.TempDir(), 8)
	db := env.newDB(t, store, env.metas[:8], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	stop, err := db.StartCheckpointer(context.Background(), CheckpointerOptions{Every: 2 * time.Millisecond}, func(err error) { t.Errorf("checkpointer: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.StartCheckpointer(context.Background(), CheckpointerOptions{}, nil); err == nil {
		t.Fatal("double start succeeded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for db.DurabilityStats().Checkpoints < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer made no progress: %d checkpoints", db.DurabilityStats().Checkpoints)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if db.DurabilityStats().Enabled {
		t.Fatal("still durable after CloseDurability")
	}
}

// TestFaultIngestSyncErrorUnacknowledged: the one fsync an ingest pays is the
// journal's, and the journal's contract is fail-stop. An fsync failure leaves
// the batch unacknowledged, every later append is refused, and a restart
// recovers exactly the acknowledged rows once the bytes that fsync never
// covered are gone (power loss, simulated by cutting the journal back to its
// length before the failed batch).
func TestFaultIngestSyncErrorUnacknowledged(t *testing.T) {
	defer faults.Reset()
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 20)
	db := env.newDB(t, store, env.metas[:20], true)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(env.images[20:25], env.metas[20:25]); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 journal segment, got %v (%v)", segs, err)
	}
	synced, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	if err := faults.Enable(faults.FSSyncError, faults.Spec{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(env.images[25:30], env.metas[25:30]); err == nil {
		t.Fatal("Append under a journal-fsync fault was acknowledged")
	}
	faults.Reset()
	if _, err := db.Append(env.images[25:30], env.metas[25:30]); err == nil || !strings.Contains(err.Error(), "journal failed") {
		t.Fatalf("append after a journal failure = %v, want a fail-stop refusal", err)
	}

	if err := os.Truncate(segs[0], synced.Size()); err != nil {
		t.Fatal(err)
	}
	store2 := env.openStore(t, storeDir)
	db2 := env.newDB(t, store2, placeholderMeta(store2.Count()), true)
	rstats, err := db2.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Rows != 25 {
		t.Fatalf("recovered %d rows, want the 25 acknowledged", rstats.Rows)
	}
	res, err := db2.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovery after a failed journal fsync", chaosRows(t, res), chaosRows(t, want))
	if _, err := db2.Append(env.images[25:30], env.metas[25:30]); err != nil {
		t.Fatalf("append on the recovered DB: %v", err)
	}
}

// TestFaultIngestStoreWriteErrorRetryable is the mirror: the store write comes
// before the journal append, so a failed or short write there fails the batch
// cleanly — nothing was journaled, the row count holds, the journal stays
// usable — and the retry overwrites the torn bytes. A restart recovers every
// acknowledged row bit-identically.
func TestFaultIngestStoreWriteErrorRetryable(t *testing.T) {
	defer faults.Reset()
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 20)
	db := env.newDB(t, store, env.metas[:20], true)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	n := 20
	for _, point := range []string{faults.FSWriteError, faults.FSShortWrite} {
		records := db.DurabilityStats().WALRecords
		// The point's first hit in an append is the store's data write.
		if err := faults.Enable(point, faults.Spec{Times: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Append(env.images[n:n+5], env.metas[n:n+5]); err == nil {
			t.Fatalf("%s: Append under a store write fault was acknowledged", point)
		}
		faults.Reset()
		if db.Count() != n || store.Count() != n {
			t.Fatalf("%s: failed append changed the row count: db %d, store %d, want %d", point, db.Count(), store.Count(), n)
		}
		if got := db.DurabilityStats().WALRecords; got != records {
			t.Fatalf("%s: failed append journaled %d records", point, got-records)
		}
		if _, err := db.Append(env.images[n:n+5], env.metas[n:n+5]); err != nil {
			t.Fatalf("%s: retry after fault cleared: %v", point, err)
		}
		n += 5
	}
	want, err := db.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	store2 := env.openStore(t, storeDir)
	db2 := env.newDB(t, store2, placeholderMeta(store2.Count()), true)
	rstats, err := db2.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Rows != n {
		t.Fatalf("recovered %d rows, want %d", rstats.Rows, n)
	}
	res, err := db2.Query(chaosSQL, chaosCons)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "recovery after faulted store writes", chaosRows(t, res), chaosRows(t, want))
}

// TestDurableIngestOneFsync counts what an acknowledged durable append does to
// the disk, through the fs.* fault points its durability-layer calls pass: one
// fsync — the journal's — and no write beyond the store's data write and the
// journal's frames. A manifest or checkpoint rewrite (the renames of the old
// protocol) would show as an extra fs.write-error hit; a checkpoint, by
// contrast, is where the store's fsync and manifest now live.
func TestDurableIngestOneFsync(t *testing.T) {
	defer faults.Reset()
	env := durSetup(t)
	store := env.createStore(t, t.TempDir(), 20)
	db := env.newDB(t, store, env.metas[:20], true)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	count := func(what string, op func() error) (writes, fsyncs, records int64) {
		t.Helper()
		for _, p := range []string{faults.FSWriteError, faults.FSSyncError} {
			if err := faults.Enable(p, faults.Spec{Skip: 1 << 30}); err != nil {
				t.Fatal(err)
			}
		}
		before := db.DurabilityStats().WALRecords
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		writes, fsyncs = faults.Hits(faults.FSWriteError), faults.Hits(faults.FSSyncError)
		faults.Reset()
		return writes, fsyncs, db.DurabilityStats().WALRecords - before
	}
	for i, r := range [][2]int{{20, 25}, {25, 30}} {
		writes, fsyncs, records := count("append", func() error {
			_, err := db.Append(env.images[r[0]:r[1]], env.metas[r[0]:r[1]])
			return err
		})
		if records < 2 {
			t.Fatalf("append %d journaled %d records, want the batch and its trigger labels", i, records)
		}
		if fsyncs != 1 || writes != 1+records {
			t.Fatalf("append %d: %d fsyncs and %d writes for %d journal records; want 1 fsync and %d writes (one store write, one per record)",
				i, fsyncs, writes, records, 1+records)
		}
	}
	writes, fsyncs, _ := count("checkpoint", db.Checkpoint)
	if fsyncs != 3 || writes != 2 {
		t.Fatalf("checkpoint: %d fsync points and %d write points, want 3 and 2 (store data, manifest, checkpoint file; manifest, checkpoint file)", fsyncs, writes)
	}
	// With nothing appended since, the store has nothing to do.
	writes, fsyncs, _ = count("idle checkpoint", db.Checkpoint)
	if fsyncs != 1 || writes != 1 {
		t.Fatalf("idle checkpoint: %d fsync points and %d write points, want 1 and 1 (the checkpoint file only)", fsyncs, writes)
	}
}

// TestDurableReplayRewritesLostRows: the store is written without fsync, so a
// crash may lose every row since the last checkpoint; replay writes them back
// from the journal. Live and replayed files are byte-identical — reps
// included, though the appended images are not u8-exact, because both derive
// from the stored record — and the recovered store vouches for them.
func TestDurableReplayRewritesLostRows(t *testing.T) {
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 20)
	db := env.newDB(t, store, env.metas[:20], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{20, 27}, {27, 33}} {
		if _, err := db.Append(env.images[r[0]:r[1]], env.metas[r[0]:r[1]]); err != nil {
			t.Fatal(err)
		}
	}
	// The crash image: the manifest still vouches for 20 rows, so Open cuts
	// the 13 appended ones.
	lostStore, lostWal := t.TempDir(), t.TempDir()
	copyDir(t, storeDir, lostStore)
	copyDir(t, walDir, lostWal)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	store2 := env.openStore(t, lostStore)
	if store2.Count() != 20 {
		t.Fatalf("crashed store opened with %d rows, want the 20 its manifest vouches for", store2.Count())
	}
	db2 := env.newDB(t, store2, placeholderMeta(20), false)
	rstats, err := db2.EnableDurability(DurabilityOptions{Dir: lostWal})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Rows != 33 || store2.Count() != 33 {
		t.Fatalf("recovered %d rows (store %d), want 33", rstats.Rows, store2.Count())
	}
	for _, name := range []string{"manifest.json", "source.dat", "rep-8x8_gray.dat", "rep-16x16_rgb.dat"} {
		live, err := os.ReadFile(filepath.Join(storeDir, name))
		if err != nil {
			t.Fatal(err)
		}
		redone, err := os.ReadFile(filepath.Join(lostStore, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live, redone) {
			t.Fatalf("%s: replayed file differs from the live one", name)
		}
	}
	// The store vouches for the rewritten rows: a second crash replays onto a
	// store that already has them.
	store3 := env.openStore(t, lostStore)
	if store3.Count() != 33 {
		t.Fatalf("recovered store reopened with %d rows, want 33", store3.Count())
	}
}

// TestGroupCommitAppends: concurrent durable appends share journal fsyncs —
// while one writer's fsync runs the others journal their batches, and the next
// fsync covers them together — and every acknowledged batch is recoverable.
// The fsync is slowed through its fault point so the grouping does not depend
// on the disk under the test.
func TestGroupCommitAppends(t *testing.T) {
	defer faults.Reset()
	env := durSetup(t)
	storeDir, walDir := t.TempDir(), t.TempDir()
	store := env.createStore(t, storeDir, 8)
	db := env.newDB(t, store, env.metas[:8], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	if err := faults.Enable(faults.FSSyncError, faults.Spec{Delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 4
	before := db.wal.Stats().Commits
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			metas := make([]Metadata, per)
			for j := range metas {
				metas[j] = Metadata{ID: int64(1000 + w*per + j), Camera: fmt.Sprint("cam-", w)}
			}
			_, err := db.Append(env.images[w*per:(w+1)*per], metas)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	faults.Reset()
	if commits := db.wal.Stats().Commits - before; commits < 1 || commits >= writers {
		t.Fatalf("%d concurrent appends took %d journal fsyncs, want at least 1 and fewer than %d", writers, commits, writers)
	}

	store2 := env.openStore(t, storeDir)
	db2 := env.newDB(t, store2, placeholderMeta(store2.Count()), false)
	rstats, err := db2.EnableDurability(DurabilityOptions{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Rows != 8+writers*per {
		t.Fatalf("recovered %d rows, want %d", rstats.Rows, 8+writers*per)
	}
	// Each batch landed whole and in order, and each row's pixels are its own.
	seen := map[int64]bool{}
	var scratch []byte
	for i := 8; i < rstats.Rows; i++ {
		m := db2.meta.row(i)
		k := int(m.ID - 1000)
		if k < 0 || k >= writers*per || seen[m.ID] || ((i-8)%per != k%per) {
			t.Fatalf("row %d recovered as %+v: batches interleaved or duplicated", i, m)
		}
		seen[m.ID] = true
		want, err := img.AppendRecord(nil, env.images[k])
		if err != nil {
			t.Fatal(err)
		}
		got, err := store2.SourceRecord(i, &scratch)
		if err != nil || !bytes.Equal(got.AppendTo(nil), want) {
			t.Fatalf("row %d (id %d) does not hold its own image (%v)", i, m.ID, err)
		}
	}
}

// TestCheckpointerFiresOnJournalVolume: with a period that never elapses, the
// checkpointer still runs once the bytes journaled since the last checkpoint
// pass checkpointJournalBytes, and a checkpoint resets the count.
func TestCheckpointerFiresOnJournalVolume(t *testing.T) {
	leakcheck.Check(t)
	env := durSetup(t)
	store := env.createStore(t, t.TempDir(), 8)
	db := env.newDB(t, store, env.metas[:8], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	stop, err := db.StartCheckpointer(context.Background(), CheckpointerOptions{Every: time.Hour}, func(err error) { t.Errorf("checkpointer: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := db.Append(env.images[8:12], env.metas[8:12]); err != nil {
		t.Fatal(err)
	}
	base := db.DurabilityStats().Checkpoints
	db.mu.Lock()
	small := db.journaled
	db.mu.Unlock()
	if small < 4*16*16*3 {
		t.Fatalf("a 4-frame append accounted %d journaled bytes, less than its pixels", small)
	}
	time.Sleep(20 * time.Millisecond)
	if got := db.DurabilityStats().Checkpoints; got != base {
		t.Fatalf("checkpointer ran %d times on %d journaled bytes", got-base, small)
	}
	// Stand in for 64 MiB of ingest.
	db.mu.Lock()
	db.noteJournaledLocked(checkpointJournalBytes)
	db.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for db.DurabilityStats().Checkpoints == base {
		if time.Now().After(deadline) {
			t.Fatal("journal past its byte bound and no checkpoint ran")
		}
		time.Sleep(time.Millisecond)
	}
	db.mu.Lock()
	left := db.journaled
	db.mu.Unlock()
	if left != 0 {
		t.Fatalf("checkpoint left %d journaled bytes accounted", left)
	}
}

// TestCheckpointSyncsStoreBeforeLock: the store's bulk data fsync — the
// expensive part of a checkpoint now that appends leave it to checkpoints —
// runs before the DB lock is taken, so ingest does not stall behind it. The
// fsync is slowed through its fault point; an append issued meanwhile must be
// acknowledged before the checkpoint completes.
func TestCheckpointSyncsStoreBeforeLock(t *testing.T) {
	defer faults.Reset()
	env := durSetup(t)
	store := env.createStore(t, t.TempDir(), 8)
	db := env.newDB(t, store, env.metas[:8], false)
	if _, err := db.EnableDurability(DurabilityOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(env.images[8:12], env.metas[8:12]); err != nil {
		t.Fatal(err)
	}
	// The checkpoint's first fsync point is the store's data files.
	if err := faults.Enable(faults.FSSyncError, faults.Spec{Delay: 400 * time.Millisecond, Times: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- db.Checkpoint() }()
	for len(faults.Active()) != 0 { // until the checkpoint has entered the slowed fsync
		time.Sleep(time.Millisecond)
	}
	if _, err := db.Append(env.images[12:16], env.metas[12:16]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("checkpoint (%v) finished before an append issued during its store fsync: the fsync held the DB lock", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if db.Count() != 16 {
		t.Fatalf("Count = %d, want 16", db.Count())
	}
}

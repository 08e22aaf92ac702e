package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tahoma/e2e"
	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/server"
	"tahoma/internal/vdb"
)

// The crash harness runs the real binary — real signals, real fsyncs, real
// process death — against one store + journal that must survive every kill.
// It SIGKILLs `tahoma serve` at random points under an append+query workload
// (plus a few runs where armed fs.crash-* fault points exit the process at
// the exact fsync boundary), restarts, and asserts the durability contract:
// every restart recovers (zero load errors), acknowledged batches are always
// recovered whole, unacknowledged batches are all-or-nothing, and the final
// recovered labels are bit-identical to an independent in-process replay of
// the same rows.

const crashContentSQL = "SELECT id FROM images WHERE contains_object('cloak')"

func serveArgs(storeDir, walDir, zooDir string, extra ...string) []string {
	args := []string{"serve",
		"-addr", "127.0.0.1:0",
		"-zoo", zooDir,
		"-corpus", storeDir,
		"-wal-dir", walDir,
		"-checkpoint-every", "300ms",
		"-trigger",
		"-scenario", "camera",
	}
	return append(args, extra...)
}

// crashBatch is one ingest batch the workload sent: its rows (by source
// image index) and whether the server acknowledged it before dying.
type crashBatch struct {
	ids    []int64
	imgIdx []int
	acked  bool
}

func queryIDs(t *testing.T, c *server.Client, sql string) map[int64]bool {
	t.Helper()
	resp, err := c.Query(sql, server.QueryOptions{})
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	ids := make(map[int64]bool, len(resp.Rows))
	for _, row := range resp.Rows {
		n, err := row[0].(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = true
	}
	return ids
}

// loadSource reads store row i's source record and decodes it.
func loadSource(s *repstore.Store, i int) (*img.Image, error) {
	var buf []byte
	rec, err := s.SourceRecord(i, &buf)
	if err != nil {
		return nil, err
	}
	return rec.Image(), nil
}

// TestCrashKillRecovery is the kill loop: >= 20 abrupt process deaths at
// random points under load, one store + journal throughout, and every
// restart must recover to a state satisfying the durability contract.
func TestCrashKillRecovery(t *testing.T) {
	if testing.Short() && os.Getenv("TAHOMA_CRASH_SHORT") == "skip" {
		t.Skip("crash loop disabled")
	}
	bin := e2e.BuildBinary(t)
	zooDir, fixtureStore := buildCLIFixture(t)
	work := t.TempDir()
	storeDir := filepath.Join(work, "store")
	walDir := filepath.Join(work, "wal")
	e2e.CopyDir(t, fixtureStore, storeDir)

	// Source material for ingests: the fixture store's own images, re-encoded.
	src, err := repstore.Open(fixtureStore)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const nSrc = 8
	encs := make([][]byte, nSrc)
	srcImages := make([]*img.Image, nSrc)
	for i := 0; i < nSrc; i++ {
		im, err := loadSource(src, i)
		if err != nil {
			t.Fatal(err)
		}
		srcImages[i] = im
		var buf bytes.Buffer
		if err := img.Encode(&buf, im); err != nil {
			t.Fatal(err)
		}
		encs[i] = buf.Bytes()
	}

	kills := 30
	if testing.Short() {
		kills = 20
	}
	rng := rand.New(rand.NewSource(11))
	var mu sync.Mutex
	var batches []*crashBatch
	nextID := int64(1000)

	for cycle := 0; cycle < kills; cycle++ {
		args := serveArgs(storeDir, walDir, zooDir)
		// Every few cycles, arm a crash point instead of relying on kill
		// timing: the process exits at the exact fsync boundary.
		switch cycle % 6 {
		case 3:
			args = append(args, "-fault", "fs.crash-before-sync")
		case 5:
			args = append(args, "-fault", "fs.crash-after-sync")
		}
		p := e2e.StartProc(t, bin, args)
		c := server.NewClientWith(p.Base, server.ClientOptions{
			MaxRetries: -1, ConnectTimeout: time.Second, RequestTimeout: 10 * time.Second,
		})

		workDone := make(chan struct{})
		go func() {
			defer close(workDone)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if err := c.WaitReady(ctx); err != nil {
				return
			}
			for seq := 0; ; seq++ {
				// Record the batch before sending: an errored send is
				// ambiguous (may or may not have landed), not absent.
				b := &crashBatch{}
				mu.Lock()
				for r := 0; r < 2; r++ {
					b.ids = append(b.ids, nextID)
					b.imgIdx = append(b.imgIdx, int(nextID)%nSrc)
					nextID++
				}
				batches = append(batches, b)
				mu.Unlock()
				rows := make([]server.IngestRow, len(b.ids))
				for r := range rows {
					rows[r] = server.IngestRow{
						ID: b.ids[r], TS: b.ids[r], Location: "ingested", Image: encs[b.imgIdx[r]],
					}
				}
				if _, err := c.IngestCtx(ctx, rows); err != nil {
					return
				}
				mu.Lock()
				b.acked = true
				mu.Unlock()
				if seq%3 == 1 {
					_, _ = c.QueryCtx(ctx, crashContentSQL, server.QueryOptions{})
				}
			}
		}()

		// Random kill point: from "barely listening" (mid-recovery) through
		// several acknowledged batches.
		time.Sleep(time.Duration(20+rng.Intn(500)) * time.Millisecond)
		p.Kill()
		<-workDone
	}

	// Final restart: recovery must succeed after every one of the kills
	// above (each cycle's WaitReady already checked the intermediate ones).
	p := e2e.StartProc(t, bin, serveArgs(storeDir, walDir, zooDir))
	c := server.NewClientWith(p.Base, server.ClientOptions{MaxRetries: -1, RequestTimeout: 30 * time.Second})
	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	if err := c.WaitReady(wctx); err != nil {
		t.Fatalf("final recovery never became ready: %v\n%s", err, p.Dump())
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durability.Enabled {
		t.Fatal("final server is not durable")
	}

	// Invariant 1: acked ⊆ recovered ⊆ acked ∪ ambiguous, batches atomic.
	all := queryIDs(t, c, "SELECT id FROM images")
	for i := int64(0); i < 40; i++ {
		if !all[i] {
			t.Fatalf("initial corpus row %d lost", i)
		}
	}
	mu.Lock()
	sent := batches
	mu.Unlock()
	acked, ambiguous, recovered := 0, 0, 0
	known := map[int64]bool{}
	var recoveredBatches []*crashBatch
	for _, b := range sent {
		present := 0
		for _, id := range b.ids {
			known[id] = true
			if all[id] {
				present++
			}
		}
		switch {
		case b.acked && present != len(b.ids):
			t.Fatalf("acknowledged batch %v only partially recovered (%d/%d rows)", b.ids, present, len(b.ids))
		case !b.acked && present != 0 && present != len(b.ids):
			t.Fatalf("unacknowledged batch %v recovered partially (%d/%d rows) — appends must be atomic", b.ids, present, len(b.ids))
		}
		if b.acked {
			acked++
		} else {
			ambiguous++
		}
		if present > 0 {
			recovered++
			recoveredBatches = append(recoveredBatches, b)
		}
	}
	for id := range all {
		if id < 1000 {
			continue
		}
		if !known[id] {
			t.Fatalf("recovered row %d was never sent", id)
		}
	}
	if acked == 0 {
		t.Fatal("workload never got a batch acknowledged; kill timing is broken")
	}
	t.Logf("kills=%d batches: sent=%d acked=%d ambiguous=%d recovered=%d rows=%d",
		kills, len(sent), acked, ambiguous, recovered, len(all))

	// Invariant 2: repeat content query is bit-identical.
	got := queryIDs(t, c, crashContentSQL)
	again := queryIDs(t, c, crashContentSQL)
	if len(got) != len(again) {
		t.Fatalf("repeat query differs: %d vs %d rows", len(got), len(again))
	}
	for id := range got {
		if !again[id] {
			t.Fatalf("repeat query differs on row %d", id)
		}
	}

	// Invariant 3: recovered labels are bit-identical to an independent
	// in-process replay over the same rows — the reference never saw a
	// journal or a crash.
	sys, err := loadSystem(zooDir)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ref := vdb.New(cm)
	var images []*img.Image
	var metas []vdb.Metadata
	for i := 0; i < 40; i++ {
		im, err := loadSource(src, i)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, im)
		metas = append(metas, vdb.Metadata{ID: int64(i), Location: "corpus", Camera: "cam-0", TS: int64(i)})
	}
	for _, b := range recoveredBatches {
		for r, id := range b.ids {
			images = append(images, srcImages[b.imgIdx[r]])
			metas = append(metas, vdb.Metadata{ID: id, TS: id, Location: "ingested"})
		}
	}
	if err := ref.LoadCorpus(images, metas); err != nil {
		t.Fatal(err)
	}
	if err := ref.InstallPredicate("cloak", sys, 2); err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Query(crashContentSQL, core.Constraints{MaxAccuracyLoss: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, row := range refRes.Rows {
		want[row[0].Int] = true
	}
	if len(got) != len(want) {
		t.Fatalf("recovered labels diverge from reference replay: %d vs %d rows", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("recovered labels diverge from reference replay on row %d", id)
		}
	}

	// Graceful exit closes the loop: SIGTERM → drain → final checkpoint →
	// exit 0.
	if err := p.GracefulStop(60 * time.Second); err != nil {
		t.Fatalf("%s: %v", "final server", err)
	}
}

// TestGracefulShutdownSIGTERM: the real signal path — SIGTERM drains, takes
// a final checkpoint and exits 0; the next start replays nothing.
func TestGracefulShutdownSIGTERM(t *testing.T) {
	bin := e2e.BuildBinary(t)
	zooDir, fixtureStore := buildCLIFixture(t)
	work := t.TempDir()
	storeDir := filepath.Join(work, "store")
	walDir := filepath.Join(work, "wal")
	e2e.CopyDir(t, fixtureStore, storeDir)

	src, err := repstore.Open(fixtureStore)
	if err != nil {
		t.Fatal(err)
	}
	im, err := loadSource(src, 0)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf, im); err != nil {
		t.Fatal(err)
	}

	p := e2e.StartProc(t, bin, serveArgs(storeDir, walDir, zooDir))
	c := server.NewClient(p.Base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err != nil {
		t.Fatalf("never ready: %v\n%s", err, p.Dump())
	}
	if _, err := c.IngestCtx(ctx, []server.IngestRow{{ID: 5000, TS: 5000, Image: buf.Bytes()}}); err != nil {
		t.Fatal(err)
	}

	if err := p.GracefulStop(60 * time.Second); err != nil {
		t.Fatalf("%s: %v", "first server", err)
	}
	if !strings.Contains(p.Dump(), "shutdown complete") {
		t.Fatalf("no shutdown log:\n%s", p.Dump())
	}
	if _, err := os.Stat(filepath.Join(walDir, "checkpoint.ckp")); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}

	// The final checkpoint collapsed the journal: restart replays nothing
	// and the ingested row is there.
	p2 := e2e.StartProc(t, bin, serveArgs(storeDir, walDir, zooDir))
	c2 := server.NewClient(p2.Base)
	if err := c2.WaitReady(ctx); err != nil {
		t.Fatalf("restart never ready: %v\n%s", err, p2.Dump())
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.WALReplayed != 0 {
		t.Fatalf("restart after graceful shutdown replayed %d records, want 0", st.Durability.WALReplayed)
	}
	if st.Rows != 41 {
		t.Fatalf("restart lost rows: %d, want 41", st.Rows)
	}
	if err := p2.GracefulStop(60 * time.Second); err != nil {
		t.Fatalf("%s: %v", "restart", err)
	}
}

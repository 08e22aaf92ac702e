package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tahoma/internal/img"
)

// TestReadyGateAndIngest: a server started unready answers liveness and
// observability but refuses queries, explains and ingest with 503 +
// Retry-After; SetReady opens the gate; POST /ingest then round-trips a
// batch through the client.
func TestReadyGateAndIngest(t *testing.T) {
	db := buildTestDB(t)
	s := New(db, Options{StartUnready: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClientWith(ts.URL, ClientOptions{MaxRetries: -1})
	ctx := context.Background()

	ready, err := c.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Fatal("unready server reported ready")
	}

	// Liveness is distinct from readiness: /healthz answers 200 while the
	// gate is closed.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while unready: HTTP %d", hr.StatusCode)
	}

	// Work endpoints are gated with 503 + Retry-After.
	for _, probe := range []func() error{
		func() error { _, err := c.Query(chaosSQL(), QueryOptions{}); return err },
		func() error { _, err := c.Explain(chaosSQL(), QueryOptions{}); return err },
		func() error { _, err := c.Ingest(testIngestRows(t, 1000, 1)); return err },
	} {
		err := probe()
		if err == nil {
			t.Fatal("gated endpoint served an unready request")
		}
		if !strings.Contains(err.Error(), "not ready") || !strings.Contains(err.Error(), "503") {
			t.Fatalf("gate error is not a 503 not-ready: %v", err)
		}
	}

	// Observability stays open and reports the gate.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready || st.NotReady == 0 {
		t.Fatalf("stats do not reflect the closed gate: ready=%v not_ready=%d", st.Ready, st.NotReady)
	}

	// WaitReady respects its context while the gate stays closed.
	wctx, wcancel := context.WithTimeout(ctx, 120*time.Millisecond)
	if err := c.WaitReady(wctx); err == nil {
		t.Fatal("WaitReady returned while the server was unready")
	}
	wcancel()

	s.SetReady(true)
	if err := c.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	before := db.Count()
	resp, err := c.Ingest(testIngestRows(t, 2000, 3))
	if err != nil {
		t.Fatalf("ingest after ready: %v", err)
	}
	if resp.Rows != 3 {
		t.Fatalf("ingest acknowledged %d rows, want 3", resp.Rows)
	}
	if db.Count() != before+3 {
		t.Fatalf("DB holds %d rows after ingest, want %d", db.Count(), before+3)
	}
	if _, err := c.Query(chaosSQL(), QueryOptions{}); err != nil {
		t.Fatalf("query after ingest: %v", err)
	}

	// Bad batches are the caller's error, not the server's.
	if _, err := c.Ingest(nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty batch: want 400, got %v", err)
	}
	if _, err := c.Ingest([]IngestRow{{ID: 1, Image: []byte("junk")}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("undecodable image: want 400, got %v", err)
	}
}

// TestIngestHeaderBomb: POST /ingest feeds untrusted bytes to the TIMG
// reader, so a 10-byte "image" whose header promises 65535×65535 RGB (51 GB
// of float32 planes) must be the caller's 400 — rejected from the header
// against the bytes actually sent, before anything is sized from it. At the
// parent commit this request ended the process.
func TestIngestHeaderBomb(t *testing.T) {
	db := buildTestDB(t)
	ts := httptest.NewServer(New(db, Options{}).Handler())
	t.Cleanup(ts.Close)
	c := NewClientWith(ts.URL, ClientOptions{MaxRetries: -1})

	rows := testIngestRows(t, 3000, 2)
	rows[1].Image = []byte("TIMG\x01\x00\xff\xff\xff\xff")
	before := db.Count()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := c.Ingest(rows)
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("header bomb: want a 400 naming row 1, got %v", err)
	}
	// Whole-process allocation across the request: HTTP and JSON plumbing,
	// nowhere near a plane buffer.
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 8<<20 {
		t.Fatalf("rejecting the bomb allocated %d bytes", got)
	}
	if db.Count() != before {
		t.Fatalf("rejected batch changed the row count: %d → %d", before, db.Count())
	}
}

// TestReadyGateRetriedLikeLoadShed: the gate's 503 is retryable, so a client
// with retries enabled simply waits out a recovery that finishes mid-flight.
func TestReadyGateRetriedLikeLoadShed(t *testing.T) {
	db := buildTestDB(t)
	s := New(db, Options{StartUnready: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClientWith(ts.URL, ClientOptions{MaxRetries: 3, RetryBase: 10 * time.Millisecond})

	go func() {
		time.Sleep(50 * time.Millisecond)
		s.SetReady(true)
	}()
	if _, err := c.Query(chaosSQL(), QueryOptions{}); err != nil {
		t.Fatalf("query across a mid-flight recovery: %v", err)
	}
	if c.Retries() == 0 {
		t.Fatal("query succeeded without retrying an unready 503")
	}
}

func chaosSQL() string { return "SELECT id FROM images WHERE contains_object('cloak')" }

// testIngestRows encodes n copies of an eval image as ingest rows with IDs
// starting at base.
func testIngestRows(t *testing.T, base int64, n int) []IngestRow {
	t.Helper()
	_, splits := testSystem(t)
	var buf bytes.Buffer
	if err := img.Encode(&buf, splits.Eval.Examples[0].Image); err != nil {
		t.Fatal(err)
	}
	rows := make([]IngestRow, n)
	for i := range rows {
		rows[i] = IngestRow{ID: base + int64(i), TS: base + int64(i), Location: "ingested", Image: buf.Bytes()}
	}
	return rows
}

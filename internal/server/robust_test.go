package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tahoma/internal/exec"
	"tahoma/internal/faults"
	"tahoma/internal/leakcheck"
	"tahoma/internal/vdb"
)

// The robustness suite: deadlines, contained panics, load-shed headers,
// client retry policy, and goroutine hygiene across the HTTP boundary.

const robustSQL = "SELECT id FROM images WHERE contains_object('cloak')"

// TestFaultDeadlineHeader504: a request carrying an unmeetable Deadline-Ms
// gets a 504 (never a hang), the deadline counter moves, and the server
// keeps answering afterwards.
func TestFaultDeadlineHeader504(t *testing.T) {
	defer faults.Reset()
	db := buildTestDB(t)
	// Small batches plus a delay-only fault on the worker point make the
	// query reliably outlive the deadline on any machine.
	db.SetExecOptions(exec.Options{Workers: 1, Batch: 8})
	if err := faults.Enable(faults.ExecWorkerPanic, faults.Spec{Delay: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s, client := startServer(t, db, Options{})
	body := []byte(`{"sql": "` + robustSQL + `"}`)
	req, err := http.NewRequest(http.MethodPost, client.base+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "10")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504", resp.StatusCode)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlined == 0 {
		t.Fatal("deadlined counter did not move")
	}
	faults.Reset()
	if _, err := client.Query(robustSQL, QueryOptions{}); err != nil {
		t.Fatalf("server unusable after a deadlined query: %v", err)
	}
	_ = s

	// A malformed deadline header is the caller's error: 400, not a hang
	// or a silently ignored deadline.
	req2, _ := http.NewRequest(http.MethodPost, client.base+"/query", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(DeadlineHeader, "soon")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline header: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestFaultWorkerPanicOneQuery500: an engine worker panic fails that one
// query with a 500 — the process survives, the panic counter moves, and the
// very next query (fault budget spent) succeeds.
func TestFaultWorkerPanicOneQuery500(t *testing.T) {
	defer faults.Reset()
	_, client := startServer(t, buildTestDB(t), Options{})
	if err := faults.Enable(faults.ExecWorkerPanic, faults.Spec{Panic: true, Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := client.Query(robustSQL, QueryOptions{})
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("want a 500 from the panicking worker, got %v", err)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error hides the panic: %v", err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics != 1 {
		t.Fatalf("panics counter %d, want 1", st.Panics)
	}
	if _, err := client.Query(robustSQL, QueryOptions{}); err != nil {
		t.Fatalf("server did not survive the contained panic: %v", err)
	}
}

// TestFaultHandlerPanicContained: the recover wall around every handler
// turns a handler panic into a per-request 500, never a process crash.
func TestFaultHandlerPanicContained(t *testing.T) {
	s := New(buildTestDB(t), Options{})
	h := s.protect(func(w http.ResponseWriter, r *http.Request) {
		panic("handler blew up")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "panic") {
		t.Fatalf("response hides the panic: %s", rec.Body.String())
	}
	if s.stats.panics.Load() != 1 {
		t.Fatalf("panics counter %d, want 1", s.stats.panics.Load())
	}
}

// TestFault503CarriesRetryAfter: a load-shed 503 tells the client when to
// come back, and the shed taxonomy (queue-full vs queue-timeout) is visible
// in /stats.
func TestFault503CarriesRetryAfter(t *testing.T) {
	s, client := startServer(t, buildTestDB(t), Options{MaxConcurrent: 1, MaxQueue: -1})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, err := http.Post(client.base+"/query", "application/json",
		strings.NewReader(`{"sql": "`+robustSQL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("503 Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueFull != 1 {
		t.Fatalf("queue_full %d, want 1", st.QueueFull)
	}
	if st.RetryAfterS < 1 {
		t.Fatalf("stats retry_after_s %d, want >= 1", st.RetryAfterS)
	}
}

// TestFaultClientRetries503: the client retries a shed query with backoff,
// honors Retry-After, counts its retries, and the eventual answer is the
// real one. With retries disabled it gives up on the first 503.
func TestFaultClientRetries503(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error": "overloaded"}`))
			return
		}
		w.Write([]byte(`{"rows": 0}`))
	}))
	defer ts.Close()

	c := NewClientWith(ts.URL, ClientOptions{MaxRetries: 3, RetryBase: time.Millisecond})
	t0 := time.Now()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if c.Retries() != 2 {
		t.Fatalf("client counted %d retries, want 2", c.Retries())
	}
	// Two 503s each said Retry-After: 1 — the client must have waited them.
	if elapsed := time.Since(t0); elapsed < 1800*time.Millisecond {
		t.Fatalf("client ignored Retry-After: done in %v", elapsed)
	}

	hits.Store(0)
	noRetry := NewClientWith(ts.URL, ClientOptions{MaxRetries: -1})
	if _, err := noRetry.Stats(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("retries disabled: want the raw 503, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("retries disabled yet server saw %d attempts", got)
	}
	if noRetry.Retries() != 0 {
		t.Fatalf("disabled client counted %d retries", noRetry.Retries())
	}
}

// TestCancelClientCtx: a client context that expires mid-call surfaces the
// context's own error, stops retrying immediately, and forwards its
// deadline to the server as Deadline-Ms.
func TestCancelClientCtx(t *testing.T) {
	var gotDeadline atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(DeadlineHeader) != "" {
			gotDeadline.Store(true)
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClientWith(ts.URL, ClientOptions{MaxRetries: 10, RetryBase: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.StatsCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("client kept retrying past its ctx deadline (%v)", elapsed)
	}
	if !gotDeadline.Load() {
		t.Fatal("client did not forward its deadline as Deadline-Ms")
	}
}

// TestLeakServerLifecycle: a full server lifecycle — queries, a query
// cancelled mid-flight, shutdown — leaves no goroutines behind.
func TestLeakServerLifecycle(t *testing.T) {
	leakcheck.Check(t)
	t.Cleanup(faults.Reset)
	db := buildTestDB(t)
	s := New(db, Options{})
	ts := httptest.NewServer(s.Handler())
	// Cleanups run last-registered first: the server closes (waiting for its
	// handlers) before leakcheck counts, even when the test fails early.
	t.Cleanup(ts.Close)
	client := NewClientWith(ts.URL, ClientOptions{MaxRetries: -1})
	if _, err := client.Query(robustSQL, QueryOptions{}); err != nil {
		t.Fatal(err)
	}

	// A query cancelled mid-flight: its engine workers must exit with it.
	// Every batch sleeps in a delay-only fault, so the query is still
	// running when the first worker reaches the point; cancelling then
	// makes the cancellation land mid-flight on any machine.
	db.SetExecOptions(exec.Options{Workers: 1, Batch: 8})
	if err := faults.Enable(faults.ExecWorkerPanic, faults.Spec{Delay: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.QueryCtx(ctx, "SELECT id FROM images WHERE contains_object('cloakb')", QueryOptions{})
		done <- err
	}()
	for faults.Hits(faults.ExecWorkerPanic) == 0 {
		select {
		case err := <-done:
			t.Fatalf("query ended (err %v) before any engine batch ran", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("query cancelled mid-flight returned %v, want context.Canceled", err)
	}
	faults.Reset()

	// Analyzer start/stop rides the same lifecycle.
	stop, err := db.StartAnalyzer(context.Background(), vdb.AnalyzerOptions{
		Interval: time.Millisecond, BatchRows: 4, Idle: s.Idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	stop()
	// The deferred ts.Close waits for handlers, but the engine goroutines
	// of the cancelled query may still be draining; leakcheck's settle
	// window covers them.
}

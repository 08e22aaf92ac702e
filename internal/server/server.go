// Package server is TAHOMA's concurrent query service: a long-lived HTTP
// front end over one open vdb.DB. It adds what the one-shot CLI cannot —
// admission control (a bounded query-worker pool with a queue, so N
// concurrent clients share the machine instead of oversubscribing the
// execution engine) and live observability (per-query latency histogram,
// engine and cache counters on /stats).
//
// Endpoints:
//
//	POST /query    SQL in (JSON body or raw text), rows out; ?ndjson=1 or
//	               {"ndjson":true} streams results as NDJSON for large sets
//	GET  /explain  the query plan, without executing it
//	POST /ingest   append rows (metadata + encoded images) through the
//	               durable ingest path
//	GET  /stats    engine + cache counters, latency histogram
//	GET  /healthz  liveness + row count
//	GET  /readyz   readiness: 503 until crash recovery has replayed the
//	               journal, 200 after
//
// Concurrent queries return results bit-identical to serial execution: each
// statement runs against one immutable read state it pinned and
// classification is deterministic per row, so interleaving cannot change any
// answer.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/vdb"
)

// Options configure a Server. The zero value serves with GOMAXPROCS query
// workers, a 4× queue, a 30s queue timeout and a 5% default accuracy budget.
type Options struct {
	// MaxConcurrent bounds the queries executing at once (0 = GOMAXPROCS).
	// Each query already parallelizes internally through the execution
	// engine, so this is the admission knob that keeps N clients from
	// oversubscribing the engine's workers.
	MaxConcurrent int
	// MaxQueue bounds the queries waiting for a worker (0 = 4×MaxConcurrent;
	// negative = no queueing). Requests beyond the bound are rejected with
	// 503 instead of piling up.
	MaxQueue int
	// QueueTimeout bounds how long a request may wait for a worker before a
	// 503 (0 = 30s).
	QueueTimeout time.Duration
	// DefaultAccuracyLoss is the accuracy budget (the paper's Uacc) applied
	// when a request does not name one (0 = 0.05; negative = no loss, the
	// most accurate cascade).
	DefaultAccuracyLoss float64
	// DefaultDeadline bounds a query's end-to-end time (admission wait +
	// execution) when the request does not carry a Deadline-Ms header
	// (0 = no default deadline). A deadlined query cancels cooperatively and
	// returns 504.
	DefaultDeadline time.Duration
	// StartUnready starts the server in the not-ready state: /readyz (and
	// every query/ingest endpoint) answers 503 + Retry-After until SetReady.
	// The serve path uses it to accept connections during crash recovery —
	// liveness (/healthz) is distinct from readiness — and flips it once the
	// journal has replayed.
	StartUnready bool
}

func (o Options) normalized() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.MaxQueue == 0:
		o.MaxQueue = 4 * o.MaxConcurrent
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 30 * time.Second
	}
	switch {
	case o.DefaultAccuracyLoss == 0:
		o.DefaultAccuracyLoss = 0.05
	case o.DefaultAccuracyLoss < 0:
		o.DefaultAccuracyLoss = 0
	}
	return o
}

// Server is the HTTP query service. Build with New, attach with Handler or
// run with Serve/ListenAndServe.
type Server struct {
	db   *vdb.DB
	opts Options

	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	ready    atomic.Bool

	stats serverStats
	hs    *http.Server
	mux   *http.ServeMux
}

// New builds a server over an open DB.
func New(db *vdb.DB, opts Options) *Server {
	opts = opts.normalized()
	s := &Server{
		db:   db,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxConcurrent),
	}
	s.ready.Store(!opts.StartUnready)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.protect(s.handleQuery))
	s.mux.HandleFunc("/explain", s.protect(s.handleExplain))
	s.mux.HandleFunc("/ingest", s.protect(s.handleIngest))
	s.mux.HandleFunc("/stats", s.protect(s.handleStats))
	s.mux.HandleFunc("/healthz", s.protect(s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.protect(s.handleReadyz))
	s.hs = &http.Server{Handler: s.mux}
	return s
}

// SetReady flips the readiness gate. The serve path calls SetReady(true) once
// recovery finishes, and SetReady(false) when a graceful shutdown begins —
// new work is refused with 503 while in-flight queries drain.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the readiness gate.
func (s *Server) Ready() bool { return s.ready.Load() }

// gateReady refuses work while the server is not ready (recovering or
// draining): 503 + Retry-After, the same shape as load shed, so retrying
// clients simply wait out the recovery.
func (s *Server) gateReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return true
	}
	s.stats.notReady.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, errors.New("server not ready (recovering or draining); retry shortly"))
	return false
}

// protect is the per-handler recover wall: a panic anywhere in a handler —
// a misbehaving cascade, an injected fault — becomes that request's 500
// (with the panic value and stack in the error body) instead of a process
// crash. The engines contain their own worker panics as *exec.PanicError
// errors; this wall catches everything else.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panics.Add(1)
				s.stats.errors.Add(1)
				writeError(w, http.StatusInternalServerError,
					&exec.PanicError{Value: rec, Stack: debug.Stack()})
			}
		}()
		h(w, r)
	}
}

// Handler returns the service's HTTP handler, for embedding into an existing
// mux or test server.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown or a listener error.
func (s *Server) Serve(ln net.Listener) error { return s.hs.Serve(ln) }

// ListenAndServe binds addr and serves until Shutdown or an error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown gracefully stops the server: in-flight queries finish, new
// connections are refused.
func (s *Server) Shutdown(ctx context.Context) error { return s.hs.Shutdown(ctx) }

// Idle reports whether the admission pool is quiet: no query executing and
// none queued. The background analyzer gates on it (vdb.AnalyzerOptions.Idle)
// so pre-materialization only ever uses capacity foreground queries are not
// asking for — the admission pool has strict priority.
func (s *Server) Idle() bool {
	return s.inflight.Load() == 0 && s.queued.Load() == 0
}

// The two load-shed outcomes of admission. Both map to 503 with a
// Retry-After derived from the live queue depth; they are distinct errors
// (and counters) because they call for different operator responses — a full
// queue is an arrival-rate problem, a queue timeout a service-time problem.
var (
	errQueueFull    = errors.New("server overloaded: query queue full")
	errQueueTimeout = errors.New("server overloaded: timed out waiting for a query worker")
)

// acquire admits one query: it takes a worker slot, queueing up to
// Options.MaxQueue waiters for at most Options.QueueTimeout. A ctx
// cancellation while queued (client gone, deadline) returns ctx's error.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, nil
	default:
	}
	if int(s.queued.Add(1)) > s.opts.MaxQueue {
		s.queued.Add(-1)
		return nil, errQueueFull
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.opts.QueueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
		return nil, errQueueTimeout
	}
}

// retryAfterSeconds derives the Retry-After hint on 503s from the live queue
// depth: an empty queue suggests an immediate retry (1s), a full one scales
// toward the queue timeout — each queued request is roughly one more
// QueueTimeout/(MaxQueue+1) of expected drain time — capped at 30s so a
// transient spike never parks clients for minutes.
func (s *Server) retryAfterSeconds() int {
	per := s.opts.QueueTimeout.Seconds() / float64(s.opts.MaxQueue+1)
	secs := int(1 + float64(float64(s.queued.Load())*per))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// StatusClientClosedRequest reports a request whose client disconnected
// mid-query (nginx's 499 convention) — the query was cancelled, not failed.
const StatusClientClosedRequest = 499

// failAdmission maps an acquire error onto the wire: load shed → 503 +
// Retry-After, deadline → 504, client disconnect → 499; each with its own
// counter so /stats separates the three.
func (s *Server) failAdmission(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.errors.Add(1)
		s.stats.deadlined.Add(1)
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("query deadline exceeded while queued: %w", err))
	case errors.Is(err, context.Canceled):
		s.stats.errors.Add(1)
		s.stats.clientGone.Add(1)
		writeError(w, StatusClientClosedRequest, err)
	default:
		s.stats.rejected.Add(1)
		if errors.Is(err, errQueueTimeout) {
			s.stats.queueTimeouts.Add(1)
		} else {
			s.stats.queueFull.Add(1)
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, err)
	}
}

// DeadlineHeader is the request header naming a per-query deadline in whole
// milliseconds. It covers the query end to end — admission wait included —
// and overrides Options.DefaultDeadline.
const DeadlineHeader = "Deadline-Ms"

// queryContext derives the request's execution context: the client's
// disconnect already cancels r.Context(); a Deadline-Ms header (or the
// server default) adds a deadline on top.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	deadline := s.opts.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad %s header %q: want positive whole milliseconds", DeadlineHeader, h)
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	if deadline > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// QueryRequest is the POST /query body (JSON). A raw-SQL text body with the
// options in query parameters is accepted too.
type QueryRequest struct {
	SQL string `json:"sql"`
	// MaxAccuracyLoss and MinThroughput are the paper's Uacc/Uthru cascade-
	// selection constraints. MaxAccuracyLoss is a pointer so an explicit 0
	// ("no accuracy loss") is distinguishable from absent ("server
	// default").
	MaxAccuracyLoss *float64 `json:"max_accuracy_loss,omitempty"`
	MinThroughput   float64  `json:"min_throughput,omitempty"`
	// NDJSON streams the response as newline-delimited JSON: a columns
	// header object, one array per row, then a trailer object with the
	// counts — the shape to consume for large results.
	NDJSON bool `json:"ndjson,omitempty"`
}

// QueryResponse is the non-streaming POST /query response, and the NDJSON
// trailer (without Rows).
type QueryResponse struct {
	Columns []string `json:"columns,omitempty"`
	// Rows hold int64s as JSON numbers and strings as JSON strings.
	Rows     [][]any `json:"rows,omitempty"`
	Count    int     `json:"count"`
	UDFCalls int     `json:"udf_calls"`
	// MatHits counts labels served from the materialized columns; Bitmap
	// reports the fully-covered fast path (content phase was pure bitmap
	// AND/ANDNOT, zero inference).
	MatHits          int  `json:"mat_hits"`
	Bitmap           bool `json:"bitmap,omitempty"`
	RepsMaterialized int  `json:"reps_materialized"`
	RepHits          int  `json:"rep_hits"`
	// RepFallbacks counts store-read failures degraded to fresh inference;
	// nonzero means the store is unhealthy but answers stayed correct.
	RepFallbacks int     `json:"rep_fallbacks,omitempty"`
	WallMS       float64 `json:"wall_ms"`
}

// errorResponse is every endpoint's failure body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// parseQueryRequest extracts the SQL and options from a request: a JSON
// body, or raw SQL text with URL query parameters.
func (s *Server) parseQueryRequest(r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			return req, fmt.Errorf("reading body: %w", err)
		}
		trimmed := strings.TrimSpace(string(body))
		if strings.HasPrefix(trimmed, "{") {
			if err := json.Unmarshal(body, &req); err != nil {
				return req, fmt.Errorf("decoding JSON body: %w", err)
			}
		} else {
			req.SQL = trimmed
		}
	}
	q := r.URL.Query()
	if req.SQL == "" {
		req.SQL = q.Get("sql")
	}
	if v := q.Get("max_accuracy_loss"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, fmt.Errorf("max_accuracy_loss: %w", err)
		}
		req.MaxAccuracyLoss = &f
	}
	if v := q.Get("min_throughput"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, fmt.Errorf("min_throughput: %w", err)
		}
		req.MinThroughput = f
	}
	if v := q.Get("ndjson"); v == "1" || v == "true" {
		req.NDJSON = true
	}
	if req.SQL == "" {
		return req, errors.New("missing sql")
	}
	return req, nil
}

func (s *Server) constraints(req QueryRequest) core.Constraints {
	loss := s.opts.DefaultAccuracyLoss
	if req.MaxAccuracyLoss != nil {
		// An explicit 0 is a real constraint — the most accurate cascade —
		// not "use the default".
		loss = *req.MaxAccuracyLoss
	}
	return core.Constraints{MaxAccuracyLoss: loss, MinThroughput: req.MinThroughput}
}

// appendRow appends one result row as a JSON array, exactly as encoding/json
// renders the equivalent []any — integers in decimal, strings through
// json.Marshal (same escaping, same treatment of invalid UTF-8) — without
// boxing a cell into an interface.
func appendRow(b []byte, row []vdb.Value) []byte {
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		if v.IsString {
			str, _ := json.Marshal(v.Str) // a string cannot fail to marshal
			b = append(b, str...)
		} else {
			b = strconv.AppendInt(b, v.Int, 10)
		}
	}
	return append(b, ']')
}

// encodeQueryResponse renders the buffered /query body: resp (whose Rows are
// unset) with rows written directly as its "rows" member. The bytes are what
// json.Encoder produces for a QueryResponse holding the same rows boxed:
// every other member is encoded by encoding/json itself, and rows is spliced
// in where the struct declares it — after columns, which leads the object.
func encodeQueryResponse(resp *QueryResponse, rows [][]vdb.Value) []byte {
	rest, _ := json.Marshal(resp) // strings, numbers and bools only
	if len(rows) == 0 {
		return append(rest, '\n')
	}
	head := []byte{'{'}
	if len(resp.Columns) > 0 {
		cols, _ := json.Marshal(resp.Columns)
		head = append(append(append(head, `"columns":`...), cols...), ',')
	}
	out := make([]byte, 0, len(rest)+len(rows)*len(rows[0])*12)
	out = append(append(out, head...), `"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendRow(out, row)
	}
	out = append(append(out, `],`...), rest[len(head):]...)
	return append(out, '\n')
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		return
	}
	if !s.gateReady(w) {
		return
	}
	req, err := s.parseQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cons := s.constraints(req)
	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		s.failAdmission(w, err)
		return
	}
	s.inflight.Add(1)
	t0 := time.Now()
	res, err := s.db.QueryContext(ctx, req.SQL, cons)
	wall := time.Since(t0)
	s.inflight.Add(-1)
	release()
	if err != nil {
		s.stats.errors.Add(1)
		var pe *exec.PanicError
		var planErr *vdb.PlanError
		switch {
		case errors.As(err, &planErr):
			// A plan that cannot be built — bad SQL, unknown column or
			// predicate, a literal of the wrong type, an unreachable
			// constraint — is the caller's error. Every other failure is
			// execution-side (store I/O, engine faults) and 500.
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, context.DeadlineExceeded):
			s.stats.deadlined.Add(1)
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("query deadline exceeded: %w", err))
		case errors.Is(err, context.Canceled):
			// The client is gone; the status is for logs and proxies.
			s.stats.clientGone.Add(1)
			writeError(w, StatusClientClosedRequest, err)
		case errors.As(err, &pe):
			// A contained engine panic: this query failed, the process and
			// every other query are fine.
			s.stats.panics.Add(1)
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.stats.observe(res, wall)

	resp := QueryResponse{
		Columns:          res.Columns,
		Count:            res.Count,
		UDFCalls:         res.UDFCalls,
		MatHits:          res.MatHits,
		Bitmap:           res.Bitmap,
		RepsMaterialized: res.RepsMaterialized,
		RepHits:          res.RepHits,
		RepFallbacks:     res.RepFallbacks,
		WallMS:           float64(wall.Microseconds()) / 1e3,
	}
	if !req.NDJSON {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(encodeQueryResponse(&resp, res.Rows))
		return
	}

	// NDJSON: header, rows, trailer — flushed incrementally so a client can
	// consume arbitrarily large results without buffering them.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	_ = enc.Encode(struct {
		Columns []string `json:"columns"`
	}{Columns: res.Columns})
	var line []byte
	for i, row := range res.Rows {
		line = append(appendRow(line[:0], row), '\n')
		_, _ = w.Write(line)
		if flusher != nil && i%256 == 255 {
			flusher.Flush()
		}
	}
	resp.Columns = nil
	_ = enc.Encode(resp)
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !s.gateReady(w) {
		return
	}
	req, err := s.parseQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := s.db.Explain(req.SQL, s.constraints(req))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, plan)
}

// IngestRow is one row of a POST /ingest request: the metadata plus the
// source image in the store's encoded format (JSON carries Image as base64).
type IngestRow struct {
	ID       int64  `json:"id"`
	TS       int64  `json:"ts"`
	Location string `json:"location,omitempty"`
	Camera   string `json:"camera,omitempty"`
	Image    []byte `json:"image"`
}

// IngestRequest is the POST /ingest body.
type IngestRequest struct {
	Rows []IngestRow `json:"rows"`
}

// IngestResponse acknowledges a durably committed batch. When the DB is
// durable, a 200 means the batch's journal record is fsynced: it survives any
// crash from this moment on.
type IngestResponse struct {
	Rows     int `json:"rows"`
	UDFCalls int `json:"udf_calls"`
}

// maxIngestBody bounds one ingest request (64 MiB of JSON).
const maxIngestBody = 64 << 20

// handleIngest appends a batch through the durable ingest path. Ingest goes
// through the same admission pool as queries — trigger classification is
// engine work — and is gated on readiness like everything else. Each row's
// image stays the TIMG record it arrived as: validated in place, handed to
// the DB as stored bytes, never expanded to float32 on the way.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	if !s.gateReady(w) {
		return
	}
	body, err := readBody(r, maxIngestBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	var req IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding JSON body: %w", err))
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no rows"))
		return
	}
	recs := make([]img.Record, len(req.Rows))
	metas := make([]vdb.Metadata, len(req.Rows))
	for i, row := range req.Rows {
		// The body is untrusted: ParseRecord holds the header's geometry to
		// the bytes actually sent before anything is sized from it.
		if recs[i], err = img.ParseRecord(row.Image); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("row %d: decoding image: %w", i, err))
			return
		}
		metas[i] = vdb.Metadata{ID: row.ID, TS: row.TS, Location: row.Location, Camera: row.Camera}
	}

	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	release, err := s.acquire(ctx)
	if err != nil {
		s.failAdmission(w, err)
		return
	}
	s.inflight.Add(1)
	udf, err := s.db.AppendRecords(recs, metas)
	s.inflight.Add(-1)
	release()
	switch {
	case errors.Is(err, repstore.ErrGeometry):
		// A frame the store cannot hold is the body's fault; no row counted.
		writeError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		s.stats.errors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.stats.ingested.Add(int64(len(req.Rows)))
	writeJSON(w, http.StatusOK, IngestResponse{Rows: len(req.Rows), UDFCalls: udf})
}

// readBody reads a request body of at most limit bytes. A modest declared
// length is read into one buffer of that size instead of growing one by
// doubling; a large one is a claim, and is only believed as bytes arrive.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= min(limit, 1<<20) {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(r.Body, limit))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK   bool `json:"ok"`
		Rows int  `json:"rows"`
	}{OK: true, Rows: s.db.Count()})
}

// ReadyResponse is the GET /readyz body: 200 when the server is serving, 503
// while it is recovering or draining. Liveness (/healthz) answers OK in both
// states — a recovering process is alive, just not serving yet.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	Rows  int  `json:"rows"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := ReadyResponse{Ready: s.ready.Load(), Rows: s.db.Count()}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

// latencyBoundsMS are the histogram's upper bucket bounds; the final bucket
// is unbounded.
var latencyBoundsMS = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// serverStats aggregates per-query accounting. Counter fields are atomics;
// the histogram has its own lock.
type serverStats struct {
	queries  atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64
	// Load-shed and failure taxonomy: rejected = queueFull + queueTimeouts;
	// deadlined (504) and clientGone (499) are cancelled queries; panics are
	// contained handler/engine panics served as 500s.
	queueFull     atomic.Int64
	queueTimeouts atomic.Int64
	deadlined     atomic.Int64
	clientGone    atomic.Int64
	panics        atomic.Int64
	notReady      atomic.Int64
	ingested      atomic.Int64

	udfCalls     atomic.Int64
	repsMat      atomic.Int64
	repHits      atomic.Int64
	repFallbacks atomic.Int64

	mu      sync.Mutex
	counts  []int64 // len(latencyBoundsMS)+1
	sum     time.Duration
	max     time.Duration
	samples int64
}

func (st *serverStats) observe(res *vdb.Result, wall time.Duration) {
	st.queries.Add(1)
	st.udfCalls.Add(int64(res.UDFCalls))
	st.repsMat.Add(int64(res.RepsMaterialized))
	st.repHits.Add(int64(res.RepHits))
	st.repFallbacks.Add(int64(res.RepFallbacks))

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.counts == nil {
		st.counts = make([]int64, len(latencyBoundsMS)+1)
	}
	ms := float64(wall.Microseconds()) / 1e3
	b := len(latencyBoundsMS)
	for i, le := range latencyBoundsMS {
		if ms <= le {
			b = i
			break
		}
	}
	st.counts[b]++
	st.sum += wall
	st.samples++
	if wall > st.max {
		st.max = wall
	}
}

// CacheStats is repstore.CacheStats on the wire: the same fields, so one
// converts to the other.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	EvictedBytes  int64 `json:"evicted_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	ReadThrough   int64 `json:"read_through"`
}

// LatencyBucket is one histogram cell: queries that finished in at most LEMS
// milliseconds (the final bucket has LEMS 0 = unbounded).
type LatencyBucket struct {
	LEMS  float64 `json:"le_ms,omitempty"`
	Count int64   `json:"count"`
}

// Latency is the per-query wall-time distribution since the server started.
type Latency struct {
	Count   int64           `json:"count"`
	MeanMS  float64         `json:"mean_ms"`
	MaxMS   float64         `json:"max_ms"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Queries  int64 `json:"queries"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`

	// The load-shed and failure taxonomy behind Rejected/Errors:
	// Rejected = QueueFull + QueueTimeouts (both 503 + Retry-After);
	// Deadlined are 504s, ClientGone 499s (cancelled, not failed), Panics
	// contained handler/engine panics served as 500s. RetryAfterS is the
	// Retry-After a 503 would carry right now, from the live queue depth.
	QueueFull     int64 `json:"queue_full"`
	QueueTimeouts int64 `json:"queue_timeouts"`
	Deadlined     int64 `json:"deadlined"`
	ClientGone    int64 `json:"client_gone"`
	Panics        int64 `json:"panics"`
	RetryAfterS   int   `json:"retry_after_s"`

	// Ready mirrors /readyz; NotReady counts requests refused by the gate;
	// IngestedRows counts rows acknowledged through POST /ingest.
	Ready        bool  `json:"ready"`
	NotReady     int64 `json:"not_ready"`
	IngestedRows int64 `json:"ingested_rows"`

	Rows       int      `json:"rows"`
	Predicates []string `json:"predicates"`

	UDFCalls         int64 `json:"udf_calls"`
	RepsMaterialized int64 `json:"reps_materialized"`
	// RepHits counts representation-slot loads served without a transform,
	// from the representation store.
	RepHits int64 `json:"rep_hits"`
	// RepFallbacks counts store-read failures degraded to fresh inference
	// across all queries — a health signal for the representation store.
	RepFallbacks int64 `json:"rep_fallbacks"`

	// StoreCache is the store-backed corpus's record cache (present for
	// store corpora).
	StoreCache *CacheStats `json:"store_cache,omitempty"`

	// Materialization is the label-materialization layer: mode, coverage,
	// lookup hit/miss, byte budget and evictions, analyzer progress, and
	// the per-predicate usage table driving the background analyzer.
	Materialization vdb.MatStats `json:"materialization"`

	// Planner reports the cost-based planner: plan-choice counters and the
	// adaptive selectivity catalog.
	Planner PlannerStats `json:"planner"`

	// Quantization is never encoded and always zero: there is no int8
	// scoring path.
	//
	// Deprecated: kept for the frozen benchmark harness (bench/trace.go);
	// delete it when a harness PR drops the reads.
	Quantization QuantizationStats `json:"-"`

	// Durability is the write-ahead journal and checkpoint layer: replay and
	// truncation accounting from the last recovery, journal footprint,
	// checkpoint age.
	Durability vdb.DurabilityStats `json:"durability"`

	Latency Latency `json:"latency"`
}

// PlannerStats is the /stats planner section.
type PlannerStats struct {
	// SequentialPlans counts executed content queries: every content phase
	// narrows step by step in the planner's rank order.
	SequentialPlans int64 `json:"sequential_plans"`
	// FusedPlans is never encoded and always zero: content predicates never
	// run fused.
	//
	// Deprecated: kept for the frozen benchmark harness (bench/trace.go);
	// delete it when a harness PR drops the read.
	FusedPlans int64 `json:"-"`
	// Selectivity is the adaptive catalog: per predicate, the current
	// pass-rate estimate, the observed frames behind it (0 = still the
	// install-time seed) and that seed.
	Selectivity []SelectivityEntry `json:"selectivity,omitempty"`
}

// SelectivityEntry is one predicate's adaptive selectivity state.
type SelectivityEntry struct {
	Predicate string  `json:"predicate"`
	PassRate  float64 `json:"pass_rate"`
	Samples   int64   `json:"samples"`
	Seed      float64 `json:"seed"`
}

// QuantizationStats is what remains of the former /stats quantization
// section: two counters that stay zero.
//
// Deprecated: see StatsResponse.Quantization.
type QuantizationStats struct {
	QuantScored    int64
	QuantFallbacks int64
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Queries:          s.stats.queries.Load(),
		Errors:           s.stats.errors.Load(),
		Rejected:         s.stats.rejected.Load(),
		QueueFull:        s.stats.queueFull.Load(),
		QueueTimeouts:    s.stats.queueTimeouts.Load(),
		Deadlined:        s.stats.deadlined.Load(),
		ClientGone:       s.stats.clientGone.Load(),
		Panics:           s.stats.panics.Load(),
		RetryAfterS:      s.retryAfterSeconds(),
		Ready:            s.ready.Load(),
		NotReady:         s.stats.notReady.Load(),
		IngestedRows:     s.stats.ingested.Load(),
		InFlight:         s.inflight.Load(),
		Queued:           s.queued.Load(),
		Rows:             s.db.Count(),
		Predicates:       s.db.Predicates(),
		UDFCalls:         s.stats.udfCalls.Load(),
		RepsMaterialized: s.stats.repsMat.Load(),
		RepHits:          s.stats.repHits.Load(),
		RepFallbacks:     s.stats.repFallbacks.Load(),
	}
	if st, ok := s.db.RepCacheStats(); ok {
		wire := CacheStats(st)
		resp.StoreCache = &wire
	}
	resp.Materialization = s.db.MatStats()
	resp.Durability = s.db.DurabilityStats()
	pl := s.db.PlannerStats()
	resp.Planner = PlannerStats{SequentialPlans: pl.ContentPlans}
	for _, e := range pl.Selectivity {
		resp.Planner.Selectivity = append(resp.Planner.Selectivity, SelectivityEntry{
			Predicate: e.Key, PassRate: e.PassRate, Samples: e.Samples, Seed: e.Seed,
		})
	}
	s.stats.mu.Lock()
	resp.Latency.Count = s.stats.samples
	if s.stats.samples > 0 {
		resp.Latency.MeanMS = float64(s.stats.sum.Microseconds()) / 1e3 / float64(s.stats.samples)
		resp.Latency.MaxMS = float64(s.stats.max.Microseconds()) / 1e3
	}
	for i, c := range s.stats.counts {
		if c == 0 {
			continue
		}
		b := LatencyBucket{Count: c}
		if i < len(latencyBoundsMS) {
			b.LEMS = latencyBoundsMS[i]
		}
		resp.Latency.Buckets = append(resp.Latency.Buckets, b)
	}
	s.stats.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

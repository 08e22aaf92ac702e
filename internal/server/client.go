package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ClientOptions tune the client's timeouts and retry policy. The zero value
// is sane: 2s connect, 30s per-attempt request timeout, up to 3 retries with
// exponential backoff + jitter inside a 2-minute elapsed budget.
type ClientOptions struct {
	// ConnectTimeout bounds TCP connection establishment (0 = 2s).
	ConnectTimeout time.Duration
	// RequestTimeout bounds one attempt end to end, headers and body
	// (0 = 30s; negative = unbounded, for interactive streaming of very
	// large results).
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (0 = 3;
	// negative = never retry). Every request the client makes is idempotent —
	// queries are read-only and classification is deterministic, so a retried
	// query returns labels bit-identical to the first attempt — which is what
	// makes blind retry safe. Retried failures: connection/transport errors,
	// and 502/503/504 responses (503 honoring the server's Retry-After).
	MaxRetries int
	// RetryBase is the first backoff step (0 = 100ms); each retry doubles it
	// (capped at 5s) and adds up to 50% random jitter so clients shed from a
	// loaded server do not stampede back in lockstep.
	RetryBase time.Duration
	// RetryMaxElapsed caps the total time spent across attempts and backoffs
	// (0 = 2m). A per-call ctx deadline always wins over this budget.
	RetryMaxElapsed time.Duration
}

func (o ClientOptions) normalized() ClientOptions {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 2 * time.Second
	}
	switch {
	case o.RequestTimeout == 0:
		o.RequestTimeout = 30 * time.Second
	case o.RequestTimeout < 0:
		o.RequestTimeout = 0
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 3
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryMaxElapsed <= 0 {
		o.RetryMaxElapsed = 2 * time.Minute
	}
	return o
}

// Client talks to a running tahoma server. The zero accuracy budget defers
// to the server's default. Failed attempts retry per ClientOptions; every
// method has a ...Ctx variant taking a per-call context whose deadline is
// also forwarded to the server as a Deadline-Ms header, so the server stops
// working on a query the moment the client stops waiting for it.
type Client struct {
	base    string
	opts    ClientOptions
	hc      *http.Client
	retries atomic.Int64
}

// NewClient builds a client for a server base URL, e.g.
// "http://127.0.0.1:8080", with default ClientOptions.
func NewClient(base string) *Client {
	return NewClientWith(base, ClientOptions{})
}

// NewClientWith builds a client with explicit timeout/retry options.
func NewClientWith(base string, opts ClientOptions) *Client {
	opts = opts.normalized()
	return &Client{
		base: strings.TrimRight(base, "/"),
		opts: opts,
		hc: &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: opts.ConnectTimeout}).DialContext,
				MaxIdleConnsPerHost: 16,
			},
		},
	}
}

// Retries reports how many retry attempts this client has made — the
// client-side half of the server's shed counters.
func (c *Client) Retries() int64 { return c.retries.Load() }

// QueryOptions are the per-request cascade-selection constraints.
type QueryOptions struct {
	// MaxAccuracyLoss is the accuracy budget (Uacc). nil defers to the
	// server's default; a pointer to 0 explicitly requests the most
	// accurate cascade.
	MaxAccuracyLoss *float64
	MinThroughput   float64
}

func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e errorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

// retryableStatus reports whether a response status is worth retrying:
// load shed and gateway-side failures, where a later attempt can win.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// retryAfter extracts a 503's Retry-After hint (whole seconds), 0 if absent.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// cancelBody ties an attempt's timeout context to the response body: the
// timeout must stay armed while the caller streams the body, and must be
// released when the body is closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// do runs one logical request with the retry policy. build must construct a
// fresh *http.Request per attempt (a consumed body cannot be resent). The
// returned response's Body must be closed; non-2xx responses are returned
// (not errors) once retries are exhausted, so callers decode the error body.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastErr error
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if c.opts.RequestTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		}
		req, err := build()
		if err != nil {
			cancel()
			return nil, err
		}
		req = req.WithContext(actx)
		// Forward the caller's deadline so the server cancels with us.
		if dl, ok := ctx.Deadline(); ok {
			if ms := time.Until(dl).Milliseconds(); ms > 0 {
				req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
			}
		}
		resp, err := c.hc.Do(req)
		if err == nil && !retryableStatus(resp.StatusCode) {
			resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
			return resp, nil
		}

		// Attempt failed (transport error or retryable status). Decide
		// whether another attempt fits the policy and the caller's patience.
		var sleep time.Duration
		if err != nil {
			lastErr = err
		} else {
			lastErr = decodeError(resp)
			sleep = retryAfter(resp)
			resp.Body.Close()
		}
		cancel()
		if ctx.Err() != nil {
			// The caller's own ctx ended — its error, not the attempt's.
			return nil, ctx.Err()
		}
		if attempt >= c.opts.MaxRetries || time.Since(start) > c.opts.RetryMaxElapsed {
			return nil, lastErr
		}
		backoff := c.opts.RetryBase << uint(attempt)
		if backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		backoff += time.Duration(rng.Int63n(int64(backoff)/2 + 1))
		if sleep < backoff {
			sleep = backoff
		}
		c.retries.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sleep):
		}
	}
}

func (c *Client) postQuery(ctx context.Context, sql string, opts QueryOptions, ndjson bool) (*http.Response, error) {
	req := QueryRequest{SQL: sql, MaxAccuracyLoss: opts.MaxAccuracyLoss, MinThroughput: opts.MinThroughput, NDJSON: ndjson}
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		hr, err := http.NewRequest(http.MethodPost, c.base+"/query", bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		return hr, nil
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// Query runs sql and returns the full result. Row cells decode as
// json.Number (int64 columns) or string.
func (c *Client) Query(sql string, opts QueryOptions) (*QueryResponse, error) {
	return c.QueryCtx(context.Background(), sql, opts)
}

// QueryCtx is Query with a per-call context: cancelling it aborts the
// request, and its deadline is forwarded to the server as Deadline-Ms.
func (c *Client) QueryCtx(ctx context.Context, sql string, opts QueryOptions) (*QueryResponse, error) {
	resp, err := c.postQuery(ctx, sql, opts, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var out QueryResponse
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &out, nil
}

// QueryRows streams sql's result via NDJSON, calling fn once per row as it
// arrives, and returns the trailer (counts and engine accounting, no Rows).
// Row cells are json.Number or string.
func (c *Client) QueryRows(sql string, opts QueryOptions, fn func(row []any) error) (*QueryResponse, error) {
	return c.QueryRowsCtx(context.Background(), sql, opts, fn)
}

// QueryRowsCtx is QueryRows with a per-call context. Retries only cover
// request setup and the status line — once rows are streaming, a mid-stream
// failure surfaces to the caller rather than silently re-reading rows.
func (c *Client) QueryRowsCtx(ctx context.Context, sql string, opts QueryOptions, fn func(row []any) error) (*QueryResponse, error) {
	resp, err := c.postQuery(ctx, sql, opts, true)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	first := true
	var trailer *QueryResponse
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		switch {
		case line[0] == '[':
			var row []any
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			if err := dec.Decode(&row); err != nil {
				return nil, fmt.Errorf("decoding row: %w", err)
			}
			if fn != nil {
				if err := fn(row); err != nil {
					return nil, err
				}
			}
		case first:
			// The columns header; skip (the trailer repeats the counts).
		default:
			var t QueryResponse
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			if err := dec.Decode(&t); err != nil {
				return nil, fmt.Errorf("decoding trailer: %w", err)
			}
			trailer = &t
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if trailer == nil {
		return nil, fmt.Errorf("stream ended without a trailer")
	}
	return trailer, nil
}

// Explain returns the server's plan for sql without executing it.
func (c *Client) Explain(sql string, opts QueryOptions) (string, error) {
	return c.ExplainCtx(context.Background(), sql, opts)
}

// ExplainCtx is Explain with a per-call context.
func (c *Client) ExplainCtx(ctx context.Context, sql string, opts QueryOptions) (string, error) {
	v := url.Values{"sql": {sql}}
	if opts.MaxAccuracyLoss != nil {
		v.Set("max_accuracy_loss", strconv.FormatFloat(*opts.MaxAccuracyLoss, 'g', -1, 64))
	}
	if opts.MinThroughput != 0 {
		v.Set("min_throughput", strconv.FormatFloat(opts.MinThroughput, 'g', -1, 64))
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.base+"/explain?"+v.Encode(), nil)
	})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// Ingest appends a batch of rows through POST /ingest. A nil error means the
// server acknowledged the batch — under durability, that it is fsynced to the
// journal and survives any crash. 503s (load shed, recovery in progress) are
// retried per ClientOptions, which is safe: a shed or gated request touched
// no state. A transport failure after the request was sent is ambiguous —
// the batch may or may not have landed — so callers needing exactly-once
// should assign unique IDs and reconcile with a query.
func (c *Client) Ingest(rows []IngestRow) (*IngestResponse, error) {
	return c.IngestCtx(context.Background(), rows)
}

// IngestCtx is Ingest with a per-call context; its deadline is forwarded to
// the server as Deadline-Ms, bounding admission wait + trigger classification.
func (c *Client) IngestCtx(ctx context.Context, rows []IngestRow) (*IngestResponse, error) {
	blob, err := json.Marshal(IngestRequest{Rows: rows})
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		hr, err := http.NewRequest(http.MethodPost, c.base+"/ingest", bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		return hr, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes GET /readyz once, without retries: true when the server is
// serving, false while it is still recovering or draining. An unreachable
// server is an error, not "not ready" — the caller can tell a dead process
// from a recovering one.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusServiceUnavailable:
		return false, nil
	default:
		return false, fmt.Errorf("server: /readyz HTTP %d", resp.StatusCode)
	}
}

// WaitReady polls /readyz until the server reports ready or ctx ends.
// Connection errors are treated as "not yet" — the normal race of probing a
// process that has not bound its listener — so WaitReady doubles as a
// startup barrier.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		ready, err := c.Ready(ctx)
		if ready {
			return nil
		}
		if err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Stats fetches the server's counters.
func (c *Client) Stats() (*StatsResponse, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats with a per-call context.
func (c *Client) StatsCtx(ctx context.Context) (*StatsResponse, error) {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.base+"/stats", nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

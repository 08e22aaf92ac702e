package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"tahoma/internal/par"
	"tahoma/internal/server"
)

// OpResult is one replayed op's outcome: the canonicalized response bytes
// (what bit-parity compares) and the engine/latency accounting around them.
type OpResult struct {
	Index     int
	Kind      string
	Canon     []byte
	LatencyMS float64
	// Bitmap and RepFallbacks are per-response engine signals (query ops
	// only): served on the pure-bitmap path / rep reads degraded to fresh
	// inference.
	Bitmap       bool
	RepFallbacks int
}

// ReplayReport is a full trace replay: per-op results (indexed like
// Trace.Ops) plus the aggregate view the suite logs.
type ReplayReport struct {
	Results      []OpResult
	WallMS       float64
	QPS          float64
	ClientP50MS  float64
	ClientP99MS  float64
	Bitmap       int
	RepFallbacks int
}

// canonicalResponse is the bit-parity surface of a response: the rows and
// the count — the answer — with the timing and cache-warmth fields
// (wall_ms, rep_hits, mat_hits, ...) stripped, since those legitimately
// differ between a live concurrent server and the serial reference.
type canonicalResponse struct {
	Count int     `json:"count"`
	Rows  [][]any `json:"rows,omitempty"`
}

func canonQuery(rows [][]any, count int, sorted bool) ([]byte, error) {
	if len(rows) == 0 {
		rows = nil
	}
	if sorted && len(rows) > 1 {
		keys := make([]string, len(rows))
		for i, row := range rows {
			blob, err := json.Marshal(row)
			if err != nil {
				return nil, err
			}
			keys[i] = string(blob)
		}
		sort.Sort(&rowSorter{rows: rows, keys: keys})
	}
	return json.Marshal(canonicalResponse{Count: count, Rows: rows})
}

type rowSorter struct {
	rows [][]any
	keys []string
}

func (s *rowSorter) Len() int           { return len(s.rows) }
func (s *rowSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// canonIngest is an ingest ack's parity surface: the row count. (Trigger
// UDF-call counts are engine accounting, not part of the answer.)
func canonIngest(rows int) ([]byte, error) {
	return json.Marshal(struct {
		Ingested int `json:"ingested"`
	}{Ingested: rows})
}

// runOp executes one op against a client and canonicalizes the response.
func runOp(ctx context.Context, c *server.Client, op Op, idx int, fx *Fixture) (OpResult, error) {
	res := OpResult{Index: idx, Kind: op.Kind}
	t0 := time.Now()
	switch op.Kind {
	case "query":
		if op.NDJSON {
			var rows [][]any
			trailer, err := c.QueryRowsCtx(ctx, op.SQL, server.QueryOptions{}, func(row []any) error {
				rows = append(rows, row)
				return nil
			})
			if err != nil {
				return res, fmt.Errorf("op %d: ndjson query %q: %w", idx, op.SQL, err)
			}
			res.LatencyMS = msSince(t0)
			res.Bitmap = trailer.Bitmap
			res.RepFallbacks = trailer.RepFallbacks
			canon, err := canonQuery(rows, trailer.Count, op.Sorted)
			if err != nil {
				return res, err
			}
			res.Canon = canon
		} else {
			resp, err := c.QueryCtx(ctx, op.SQL, server.QueryOptions{})
			if err != nil {
				return res, fmt.Errorf("op %d: query %q: %w", idx, op.SQL, err)
			}
			res.LatencyMS = msSince(t0)
			res.Bitmap = resp.Bitmap
			res.RepFallbacks = resp.RepFallbacks
			canon, err := canonQuery(resp.Rows, resp.Count, op.Sorted)
			if err != nil {
				return res, err
			}
			res.Canon = canon
		}
	case "ingest":
		rows := make([]server.IngestRow, len(op.IDs))
		for k, id := range op.IDs {
			rows[k] = server.IngestRow{
				ID: id, TS: id, Location: op.Location, Camera: op.Camera,
				Image: fx.Encoded[op.Src[k]],
			}
		}
		resp, err := c.IngestCtx(ctx, rows)
		if err != nil {
			return res, fmt.Errorf("op %d: ingest %v: %w", idx, op.IDs, err)
		}
		res.LatencyMS = msSince(t0)
		canon, err := canonIngest(resp.Rows)
		if err != nil {
			return res, err
		}
		res.Canon = canon
	default:
		return res, fmt.Errorf("op %d: unknown kind %q", idx, op.Kind)
	}
	return res, nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1e3
}

// Replay drives a trace against one or more live servers: the non-barrier
// ops run on Trace.Concurrency workers (op i goes to clients[i%len] —
// round-robin across a multi-process cluster), then the barrier ops run
// serially in order. Returns per-op results indexed like Trace.Ops.
func Replay(ctx context.Context, clients []*server.Client, tr *Trace, fx *Fixture) (*ReplayReport, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("e2e: replay needs at least one client")
	}
	rep := &ReplayReport{Results: make([]OpResult, len(tr.Ops))}
	var concurrent []int
	var barrier []int
	for i, op := range tr.Ops {
		if op.Barrier {
			barrier = append(barrier, i)
		} else {
			concurrent = append(concurrent, i)
		}
	}

	t0 := time.Now()
	if err := par.Do(len(concurrent), max(tr.Concurrency, 1), func(_, k int) error {
		idx := concurrent[k]
		var err error
		rep.Results[idx], err = runOp(ctx, clients[idx%len(clients)], tr.Ops[idx], idx, fx)
		return err
	}); err != nil {
		return rep, err
	}
	// Barrier ops see every concurrent op's effects; they run on the first
	// client, serially, in trace order.
	for _, idx := range barrier {
		res, err := runOp(ctx, clients[0], tr.Ops[idx], idx, fx)
		rep.Results[idx] = res
		if err != nil {
			return rep, err
		}
	}
	rep.WallMS = msSince(t0)

	var lats []float64
	for _, r := range rep.Results {
		lats = append(lats, r.LatencyMS)
		if r.Bitmap {
			rep.Bitmap++
		}
		rep.RepFallbacks += r.RepFallbacks
	}
	if rep.WallMS > 0 {
		rep.QPS = float64(len(rep.Results)) / (rep.WallMS / 1e3)
	}
	rep.ClientP50MS = percentileOf(lats, 0.50)
	rep.ClientP99MS = percentileOf(lats, 0.99)
	return rep, nil
}

func percentileOf(lats []float64, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	return s[int(float64(p*float64(len(s)-1))+0.5)]
}

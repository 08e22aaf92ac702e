package e2e

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
)

// Op is one operation of a traffic trace.
//
// Determinism rules for trace authors: ops run concurrently (Trace.
// Concurrency workers), so any query op that shares a trace with ingest ops
// must filter to the stable initial corpus (the fixture rows all have
// ts < ingestBaseID) — its answer is then independent of how the replay
// interleaves. Queries that must observe the ingested rows go after the
// barrier (Barrier: true): barrier ops run serially, in order, after every
// concurrent op has completed.
type Op struct {
	// Kind is "query" or "ingest".
	Kind string `json:"kind"`

	// SQL and NDJSON configure a query op. NDJSON consumes the streaming
	// response row by row instead of the buffered JSON body.
	SQL    string `json:"sql,omitempty"`
	NDJSON bool   `json:"ndjson,omitempty"`

	// IDs/Src/Location/Camera configure an ingest op: one row per entry of
	// IDs, with Src indexing the fixture's encoded source images and TS set
	// to the row's ID. IDs must be unique within a trace.
	IDs      []int64 `json:"ids,omitempty"`
	Src      []int   `json:"src,omitempty"`
	Location string  `json:"location,omitempty"`
	Camera   string  `json:"camera,omitempty"`

	// Barrier ops run serially after all concurrent ops complete — the
	// deterministic verification tail of a mix that mutates the corpus.
	Barrier bool `json:"barrier,omitempty"`

	// Sorted canonicalizes the response with its rows sorted. Concurrent
	// ingest batches land in whatever order the replay interleaves them, so
	// a query over the grown corpus has a deterministic row set but not a
	// deterministic row order; sorting restores byte-comparability without
	// weakening the set/count assertion.
	Sorted bool `json:"sorted,omitempty"`
}

// Trace is one declarative traffic mix: the ops, how hard to drive them,
// and how the serving process must be armed.
type Trace struct {
	// Mix names the trace (file name, BENCH cell, subtest name).
	Mix string `json:"mix"`
	// Seed is the generator seed recorded for provenance; replay itself is
	// deterministic given the ops.
	Seed int64 `json:"seed"`
	// Concurrency is how many replay workers drive the non-barrier ops.
	Concurrency int `json:"concurrency"`
	// Short marks the mixes the -short suite replays.
	Short bool `json:"short,omitempty"`

	// Fault arms the serving process's fault-injection points
	// (`tahoma serve -fault`) for the whole mix.
	Fault string `json:"fault,omitempty"`
	// ServeReps serves pre-materialized representations from the store
	// (`-serve-reps`), the path Fault typically targets.
	ServeReps bool `json:"serve_reps,omitempty"`

	// ExpectBitmap asserts at least one response was served on the pure
	// bitmap path (repeat-query materialization actually engaged).
	ExpectBitmap bool `json:"expect_bitmap,omitempty"`
	// ExpectRepFallbacks asserts at least one rep read degraded to fresh
	// inference (the armed fault actually fired).
	ExpectRepFallbacks bool `json:"expect_rep_fallbacks,omitempty"`

	Ops []Op `json:"ops"`
}

// QueryOnly reports whether the trace never mutates the corpus — the mixes
// that can replay against a multi-process cluster (each process holds an
// identical corpus; ingest would diverge them).
func (tr *Trace) QueryOnly() bool {
	for _, op := range tr.Ops {
		if op.Kind == "ingest" {
			return false
		}
	}
	return true
}

// ingestBaseID is the first row ID traces use for ingested rows. Fixture
// rows have ts = id < Rows, so `ts < 1000` pins a query to the stable
// initial corpus.
const ingestBaseID = 1000

// Mixes generates the harness's traffic mixes for a fixture of rows rows.
// The generator is deterministic; the committed testdata/traces/*.json
// files are its output and the replay's source of truth (TestTracesCommitted
// keeps them in sync).
func Mixes(rows int) []*Trace {
	return []*Trace{
		burstMix(),
		scanMix(),
		ingestQueryMix(rows),
		repeatMix(),
		faultMix(),
	}
}

// burstMix is the interactive regime: short point queries, metadata
// filters, content predicates, driven by 4 workers.
func burstMix() *Trace {
	tr := &Trace{Mix: "burst", Seed: 11, Concurrency: 4, Short: true}
	qs := []string{
		"SELECT COUNT(*) FROM images WHERE contains_object('cloak')",
		"SELECT id FROM images WHERE contains_object('cloak') LIMIT 5",
		"SELECT id FROM images WHERE ts >= 20 AND contains_object('cloak')",
		"SELECT id, ts FROM images WHERE ts < 10",
		"SELECT COUNT(*) FROM images WHERE NOT contains_object('cloak')",
		"SELECT id FROM images WHERE location = 'corpus' AND contains_object('cloak')",
	}
	rng := rand.New(rand.NewSource(tr.Seed))
	for i := 0; i < 36; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: "query", SQL: qs[rng.Intn(len(qs))]})
	}
	return tr
}

// scanMix is the long-scan regime: full-corpus result sets consumed over
// NDJSON streaming responses.
func scanMix() *Trace {
	tr := &Trace{Mix: "scan", Seed: 13, Concurrency: 2}
	qs := []string{
		"SELECT id, ts FROM images",
		"SELECT id, location, camera, ts FROM images",
		"SELECT id FROM images WHERE contains_object('cloak')",
		"SELECT id FROM images WHERE NOT contains_object('cloak')",
	}
	for i := 0; i < 12; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: "query", SQL: qs[i%len(qs)], NDJSON: true})
	}
	return tr
}

// ingestQueryMix interleaves POST /ingest batches with queries pinned to the
// stable initial corpus (ts < 1000), then verifies the ingested rows — row
// presence and content labels — behind the barrier.
func ingestQueryMix(rows int) *Trace {
	tr := &Trace{Mix: "ingest_query", Seed: 17, Concurrency: 4, Short: true}
	stable := []string{
		"SELECT COUNT(*) FROM images WHERE ts < 1000 AND contains_object('cloak')",
		"SELECT id FROM images WHERE ts < 1000 AND contains_object('cloak')",
		"SELECT id FROM images WHERE location = 'corpus' AND NOT contains_object('cloak')",
		"SELECT id, ts FROM images WHERE ts < 10",
	}
	nSrc := rows
	if nSrc > 8 {
		nSrc = 8
	}
	rng := rand.New(rand.NewSource(tr.Seed))
	id := int64(ingestBaseID)
	var ops []Op
	for b := 0; b < 8; b++ {
		op := Op{Kind: "ingest", Location: "ingested", Camera: "cam-ingest"}
		for r := 0; r < 2; r++ {
			op.IDs = append(op.IDs, id)
			op.Src = append(op.Src, int(id)%nSrc)
			id++
		}
		ops = append(ops, op)
	}
	for i := 0; i < 16; i++ {
		ops = append(ops, Op{Kind: "query", SQL: stable[rng.Intn(len(stable))]})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	tr.Ops = append(tr.Ops, ops...)
	// The deterministic tail: every acked row is queryable, and content
	// labels over the grown corpus match the reference.
	tr.Ops = append(tr.Ops,
		Op{Kind: "query", SQL: "SELECT COUNT(*) FROM images", Barrier: true},
		Op{Kind: "query", SQL: "SELECT id, location FROM images WHERE location = 'ingested'", Barrier: true, Sorted: true},
		Op{Kind: "query", SQL: "SELECT id FROM images WHERE contains_object('cloak')", Barrier: true, Sorted: true},
	)
	return tr
}

// repeatMix replays the same unfiltered content queries round after round:
// round 1 is inference, later rounds must collapse to bitmap lookups as the
// label columns materialize.
func repeatMix() *Trace {
	tr := &Trace{Mix: "repeat", Seed: 19, Concurrency: 2, ExpectBitmap: true}
	qs := []string{
		"SELECT COUNT(*) FROM images WHERE contains_object('cloak')",
		"SELECT id FROM images WHERE contains_object('cloak')",
		"SELECT id FROM images WHERE NOT contains_object('cloak')",
	}
	for i := 0; i < 24; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: "query", SQL: qs[i%len(qs)]})
	}
	return tr
}

// faultMix runs content queries against a server whose pre-materialized
// representation reads are armed to fail: every read degrades to decode +
// fresh inference, and the answers must stay bit-identical to the healthy
// reference.
func faultMix() *Trace {
	tr := &Trace{
		Mix: "faults", Seed: 23, Concurrency: 2,
		Fault: "store.rep-read=error", ServeReps: true, ExpectRepFallbacks: true,
	}
	qs := []string{
		"SELECT id FROM images WHERE contains_object('cloak')",
		"SELECT COUNT(*) FROM images WHERE NOT contains_object('cloak')",
		"SELECT id FROM images WHERE ts >= 20 AND contains_object('cloak')",
	}
	for i := 0; i < 9; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: "query", SQL: qs[i%len(qs)]})
	}
	return tr
}

// MarshalTrace renders a trace as the committed JSON form.
func MarshalTrace(tr *Trace) ([]byte, error) {
	blob, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// LoadTrace reads a committed trace file.
func LoadTrace(path string) (*Trace, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr Trace
	if err := json.Unmarshal(blob, &tr); err != nil {
		return nil, fmt.Errorf("e2e: %s: %w", path, err)
	}
	return &tr, nil
}

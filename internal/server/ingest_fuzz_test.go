package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/vdb"
)

// fuzzSide is the edge of the store FuzzIngestBody ingests into: its 4×4 RGB
// records are 58 bytes, small enough for the fuzzer to reach by mutation.
const fuzzSide = 4

// FuzzIngestBody holds POST /ingest — the one decoder every camera feeds —
// to its contract on arbitrary bodies, against a fresh store-backed DB each
// time. The handler never panics and never answers 5xx to a body: a body
// that does not decode, names no rows, or carries an image that is not a
// 4×4 RGB TIMG record is the caller's 4xx and appends nothing. A 200 appends
// exactly the rows json.Unmarshal decodes from the body, in order: each
// row's metadata, and its image as the bytes the store now holds. The
// committed corpus (testdata/fuzz/FuzzIngestBody) holds a valid two-row
// batch, a truncated base64 image, a bad TIMG header, a valid record of the
// wrong geometry, an unknown field and an escaped key. Each execution
// fsyncs a fresh store, so run it with -fuzzminimizetime=1s: the default
// minimisation of the first new input eats a 10 s budget at 0 execs/s.
func FuzzIngestBody(f *testing.F) {
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		store, err := repstore.Create(t.TempDir(), fuzzSide, fuzzSide, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		db := vdb.New(cm)
		if err := db.LoadCorpusFromStore(store, 1<<20, nil); err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		New(db, Options{}).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		if w.Code >= 500 {
			t.Fatalf("HTTP %d for a client body: %s", w.Code, w.Body)
		}
		if w.Code != http.StatusOK {
			if n := db.Count(); n != 0 {
				t.Fatalf("HTTP %d, yet %d rows were appended", w.Code, n)
			}
			return
		}
		var req IngestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("HTTP 200 for a body json.Unmarshal refuses: %v", err)
		}
		var ack IngestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil || ack.Rows != len(req.Rows) {
			t.Fatalf("ack %s (%v), want %d rows", w.Body, err, len(req.Rows))
		}
		if n := db.Count(); n != len(req.Rows) {
			t.Fatalf("a 200 for %d decoded rows appended %d", len(req.Rows), n)
		}
		res, err := db.Query("SELECT id, ts, location, camera FROM images", core.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for i, row := range req.Rows {
			got := res.Rows[i]
			if got[0].Int != row.ID || got[1].Int != row.TS || got[2].Str != row.Location || got[3].Str != row.Camera {
				t.Fatalf("row %d stored as %v, the body decodes to %+v", i, got, row)
			}
			rec, err := store.SourceRecord(i, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.AppendTo(nil), row.Image) {
				t.Fatalf("row %d: the store holds other bytes than the body's image", i)
			}
		}
	})
}

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"tahoma/internal/scenario"
	"tahoma/internal/vdb"
)

// maxQueryBody is the POST /query body cap parseQueryRequest reads up to.
const maxQueryBody = 1 << 20

// allocatedBy returns the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func queryRequest(body []byte, rawQuery string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	r.URL.RawQuery = rawQuery
	return r
}

// FuzzQueryRequest holds parseQueryRequest — the decoder of every POST
// /query and /explain — to its contract on arbitrary body bytes and raw URL
// query strings: it never panics; it allocates at most a small multiple of
// the bytes it reads, which the 1 MiB body cap bounds; and every request it
// accepts carries non-empty SQL. The committed corpus
// (testdata/fuzz/FuzzQueryRequest) holds a JSON body with every option, raw
// SQL with options in the query string, SQL only in the query string, an
// explicit zero accuracy loss, malformed JSON, a bad float parameter, a
// whitespace-only body and an escaped query string.
func FuzzQueryRequest(f *testing.F) {
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	s := New(vdb.New(cm), Options{})
	f.Fuzz(func(t *testing.T, body []byte, rawQuery string) {
		var (
			req QueryRequest
			err error
		)
		r := queryRequest(body, rawQuery)
		read := min(len(body), maxQueryBody) + len(rawQuery)
		if got, limit := allocatedBy(func() { req, err = s.parseQueryRequest(r) }), uint64(16*read+64<<10); got > limit {
			t.Fatalf("parsing a %d-byte body and a %d-byte query allocated %d bytes, limit %d",
				len(body), len(rawQuery), got, limit)
		}
		if err == nil && req.SQL == "" {
			t.Fatalf("accepted a request without SQL: %+v", req)
		}
	})
}

// TestQueryRequestBodyCap: a body past the 1 MiB cap is read only up to the
// cap, so a 16 MiB upload costs what a 1 MiB one does.
func TestQueryRequestBodyCap(t *testing.T) {
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := New(vdb.New(cm), Options{})
	body := []byte("SELECT id FROM images" + strings.Repeat(" ", 16<<20))
	var req QueryRequest
	got := allocatedBy(func() { req, err = s.parseQueryRequest(queryRequest(body, "")) })
	if err != nil || req.SQL != "SELECT id FROM images" {
		t.Fatalf("parsed %q, %v", req.SQL, err)
	}
	if limit := uint64(16 * maxQueryBody); got > limit {
		t.Fatalf("a %d-byte body allocated %d bytes, limit %d", len(body), got, limit)
	}
}

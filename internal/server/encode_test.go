package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"tahoma/internal/vdb"
)

// boxed is the [][]any the handler used to build for encoding/json.
func boxed(rows [][]vdb.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			if v.IsString {
				out[i][j] = v.Str
			} else {
				out[i][j] = v.Int
			}
		}
	}
	return out
}

// TestRowEncodingMatchesEncodingJSON: the hand-written rows encoder produces
// the bytes json.Encoder produces for the same response with its rows boxed
// into interfaces — integers at the int64 extremes, strings that need
// escaping (quotes, control characters, HTML, invalid UTF-8), every optional
// response member present and absent.
func TestRowEncodingMatchesEncodingJSON(t *testing.T) {
	str := func(s string) vdb.Value { return vdb.Value{IsString: true, Str: s} }
	num := func(i int64) vdb.Value { return vdb.Value{Int: i} }
	rowSets := map[string][][]vdb.Value{
		"none":   nil,
		"count":  {{num(42)}},
		"ints":   {{num(0), num(-1)}, {num(1<<63 - 1), num(-1 << 63)}},
		"mixed":  {{num(7), str("uptown"), str("cam-1"), num(70)}, {num(8), str(""), str("cam 2"), num(80)}},
		"escape": {{str(`say "hi"`), str("back\\slash"), str("tab\tnewline\n\x00\x1f")}, {str("<script>&amp;</script>"), str("café    \U0001F600"), str("bad\xff\xfeutf8")}},
	}
	full := QueryResponse{
		Columns: []string{"id", "location", "camera", "ts"}, Count: 3, UDFCalls: 5, MatHits: 9, Bitmap: true,
		RepsMaterialized: 2, RepHits: 4, RepFallbacks: 1, WallMS: 1.234,
	}
	responses := map[string]QueryResponse{
		"full":       full,
		"zero":       {},
		"no columns": {Count: 1, WallMS: 1e-7},
		"big wall":   {Columns: []string{"count"}, Count: 1, WallMS: 1e21},
	}
	for rname, rows := range rowSets {
		for name, resp := range responses {
			want := resp
			want.Rows = boxed(rows)
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatal(err)
			}
			if got := encodeQueryResponse(&resp, rows); !bytes.Equal(got, buf.Bytes()) {
				t.Errorf("%s response, %s rows:\n got %s\nwant %s", name, rname, got, buf.Bytes())
			}
		}
		for _, row := range rows {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(boxed([][]vdb.Value{row})[0]); err != nil {
				t.Fatal(err)
			}
			if got := append(appendRow(nil, row), '\n'); !bytes.Equal(got, buf.Bytes()) {
				t.Errorf("NDJSON line, %s rows:\n got %s\nwant %s", rname, got, buf.Bytes())
			}
		}
	}
}

// TestQueryBodiesOnTheWire: both response shapes of a real /query decode to
// the rows the DB returns, and the buffered body is exactly the encoding/json
// rendering of its own decoded form.
func TestQueryBodiesOnTheWire(t *testing.T) {
	db := buildTestDB(t)
	s := New(db, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const sql = "SELECT id, location, ts FROM images WHERE ts >= 100 AND contains_object('cloak')"
	res, err := db.Query(sql, s.constraints(QueryRequest{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("fixture query returned no rows")
	}
	post := func(path string) []byte {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(sql))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %v\n%s", path, resp.StatusCode, err, body)
		}
		return body
	}

	body := post("/query")
	var decoded QueryResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("buffered body does not decode: %v\n%s", err, body)
	}
	wantRows, _ := json.Marshal(boxed(res.Rows))
	if gotRows, _ := json.Marshal(decoded.Rows); !bytes.Equal(gotRows, wantRows) {
		t.Fatalf("buffered rows %s, want %s", gotRows, wantRows)
	}
	// wall_ms is the one member a re-encode cannot reproduce from a float64
	// round trip; everything before it must match byte for byte.
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(body, []byte(`"wall_ms"`))
	if cut < 0 || !bytes.HasPrefix(again.Bytes(), body[:cut]) {
		t.Fatalf("buffered body is not what encoding/json renders:\n got %s\nwant %s", body, again.Bytes())
	}

	lines := bufio.NewScanner(bytes.NewReader(post("/query?ndjson=1")))
	var got [][]byte
	for lines.Scan() {
		got = append(got, append([]byte(nil), lines.Bytes()...))
	}
	if len(got) != len(res.Rows)+2 {
		t.Fatalf("NDJSON body has %d lines, want header + %d rows + trailer", len(got), len(res.Rows))
	}
	for i, row := range boxed(res.Rows) {
		if want, _ := json.Marshal(row); !bytes.Equal(got[1+i], want) {
			t.Fatalf("NDJSON row %d: %s, want %s", i, got[1+i], want)
		}
	}
}

// TestTypeMismatchIsCallersError: a literal of the wrong type for its column
// is rejected at plan time — 400 from /query and /explain alike, on an empty
// table as on a full one — and never reaches execution, where it used to fail
// on the first row as a 500 (or, with no first row, not at all).
func TestTypeMismatchIsCallersError(t *testing.T) {
	full := buildTestDB(t)
	empty := buildTestDB(t)
	if err := empty.LoadCorpus(nil, nil); err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*vdb.DB{"full": full, "empty": empty} {
		s := New(db, Options{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		for _, sql := range []string{
			"SELECT * FROM images WHERE id = 'abc'",
			"SELECT COUNT(*) FROM images WHERE location = 7",
			"SELECT id FROM images WHERE ts < '10' AND contains_object('cloak')",
			"SELECT id FROM images WHERE bogus = 1",
		} {
			for _, path := range []string{"/query", "/explain"} {
				resp, err := http.Get(ts.URL + path + "?sql=" + url.QueryEscape(sql))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s table: GET %s %q = %d, want 400\n%s", name, path, sql, resp.StatusCode, body)
				}
			}
		}
		if got := s.stats.errors.Load(); got != 4 {
			t.Errorf("%s table: %d query errors counted, want the 4 rejected /query statements", name, got)
		}
	}
}

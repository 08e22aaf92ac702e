package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/vdb"
)

// The tests share one trained tiny system; every test builds a fresh DB.
var fixture struct {
	once   sync.Once
	err    error
	sys    *core.System
	splits synth.Splits
}

func testSystem(t *testing.T) (*core.System, synth.Splits) {
	t.Helper()
	fixture.once.Do(func() {
		cat, err := synth.CategoryByName("cloak")
		if err != nil {
			fixture.err = err
			return
		}
		fixture.splits, err = synth.GenerateBinary(cat, synth.Options{
			BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
		})
		if err != nil {
			fixture.err = err
			return
		}
		fixture.sys, fixture.err = core.Initialize("cloak", fixture.splits, core.TinyConfig())
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.sys, fixture.splits
}

// buildTestDB assembles a DB over the system's eval split, with the system
// installed under two categories so separate queries run identical cascades
// into separate columns.
func buildTestDB(t *testing.T) *vdb.DB {
	t.Helper()
	sys, splits := testSystem(t)
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := vdb.New(cm)
	var images []*img.Image
	var meta []vdb.Metadata
	locations := []string{"uptown", "downtown"}
	for i, e := range splits.Eval.Examples {
		images = append(images, e.Image)
		meta = append(meta, vdb.Metadata{ID: int64(i), Location: locations[i%2], Camera: "cam-1", TS: int64(i * 10)})
	}
	if err := db.LoadCorpus(images, meta); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"cloak", "cloakb"} {
		if err := db.InstallPredicate(cat, sys, 2); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func startServer(t *testing.T, db *vdb.DB, opts Options) (*Server, *Client) {
	t.Helper()
	s := New(db, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Retries off: admission tests count exact 503s, and retry behavior has
	// its own dedicated tests.
	return s, NewClientWith(ts.URL, ClientOptions{MaxRetries: -1})
}

func respKey(columns []string, rows [][]any, count int) string {
	return fmt.Sprintf("cols=%v count=%d rows=%v", columns, count, rows)
}

// TestServeConcurrentBitIdentical: 8 concurrent HTTP clients get results
// bit-identical to serial execution of the same queries.
func TestServeConcurrentBitIdentical(t *testing.T) {
	queries := []string{
		"SELECT id FROM images WHERE contains_object('cloak')",
		"SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak')",
		"SELECT COUNT(*) FROM images WHERE contains_object('cloakb')",
		"SELECT id FROM images WHERE NOT contains_object('cloakb')",
		"SELECT id, ts FROM images WHERE ts >= 100",
		"SELECT id FROM images WHERE contains_object('cloak') AND contains_object('cloakb')",
	}

	// Serial baseline on a fresh DB, via the engine directly.
	serialDB := buildTestDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	want := make(map[string]string, len(queries))
	for _, sql := range queries {
		res, err := serialDB.Query(sql, cons)
		if err != nil {
			t.Fatalf("serial %q: %v", sql, err)
		}
		rows := make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = serialRowValues(row)
		}
		want[sql] = respKey(res.Columns, rows, res.Count)
	}

	_, client := startServer(t, buildTestDB(t), Options{MaxConcurrent: 4})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(queries))
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < len(queries); i++ {
				sql := queries[(cl+i)%len(queries)]
				resp, err := client.Query(sql, QueryOptions{})
				if err != nil {
					errs <- fmt.Errorf("client %d %q: %w", cl, sql, err)
					return
				}
				// Normalize decoded rows (json.Number) to the serial shape.
				rows := make([][]any, len(resp.Rows))
				for r, row := range resp.Rows {
					rows[r] = make([]any, len(row))
					for c, v := range row {
						rows[r][c] = v
					}
				}
				got := fmt.Sprintf("cols=%v count=%d rows=%v", resp.Columns, resp.Count, rows)
				if got != want[sql] {
					errs <- fmt.Errorf("client %d %q diverged:\n got %s\nwant %s", cl, sql, got, want[sql])
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries < int64(clients*len(queries)) {
		t.Fatalf("stats counted %d queries, want >= %d", st.Queries, clients*len(queries))
	}
	if st.Latency.Count != st.Queries || st.Latency.MeanMS <= 0 {
		t.Fatalf("latency histogram inconsistent: %+v vs %d queries", st.Latency, st.Queries)
	}
}

// serialRowValues renders a result row the way the decoded JSON rows print
// (json.Number and string both format as their literal), so the baseline and
// the HTTP path compare byte-for-byte.
func serialRowValues(row []vdb.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		if v.IsString {
			out[i] = v.Str
		} else {
			out[i] = fmt.Sprintf("%d", v.Int)
		}
	}
	return out
}

// TestNDJSONStreaming: the streaming path yields the same rows and counts as
// the buffered path.
func TestNDJSONStreaming(t *testing.T) {
	_, client := startServer(t, buildTestDB(t), Options{})
	sql := "SELECT id, location FROM images WHERE contains_object('cloak')"
	full, err := client.Query(sql, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	trailer, err := client.QueryRows(sql, QueryOptions{}, func(row []any) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(full.Rows) || trailer.Count != full.Count {
		t.Fatalf("stream %d rows count=%d, buffered %d rows count=%d",
			len(rows), trailer.Count, len(full.Rows), full.Count)
	}
	for i := range rows {
		if fmt.Sprint(rows[i]) != fmt.Sprint(full.Rows[i]) {
			t.Fatalf("row %d: stream %v != buffered %v", i, rows[i], full.Rows[i])
		}
	}
	if trailer.UDFCalls != 0 {
		// The buffered query ran first and materialized the column.
		t.Fatalf("streamed repeat paid %d UDF calls", trailer.UDFCalls)
	}
}

// TestAdmissionControl: with one worker and no queue, a second concurrent
// query is rejected with 503; with a queue it waits; a queue timeout 503s.
func TestAdmissionControl(t *testing.T) {
	s, client := startServer(t, buildTestDB(t), Options{MaxConcurrent: 1, MaxQueue: -1})
	// Occupy the only worker slot directly.
	s.sem <- struct{}{}
	_, err := client.Query("SELECT COUNT(*) FROM images", QueryOptions{})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("expected 503 rejection, got %v", err)
	}
	st, _ := client.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", st.Rejected)
	}
	<-s.sem
	if _, err := client.Query("SELECT COUNT(*) FROM images", QueryOptions{}); err != nil {
		t.Fatalf("after release: %v", err)
	}

	// Queue timeout: a waiter that never gets a slot 503s after the bound.
	s2, client2 := startServer(t, buildTestDB(t), Options{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 50 * time.Millisecond})
	s2.sem <- struct{}{}
	t0 := time.Now()
	_, err = client2.Query("SELECT COUNT(*) FROM images", QueryOptions{})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("expected queue-timeout 503, got %v", err)
	}
	if time.Since(t0) < 50*time.Millisecond {
		t.Fatal("rejected before the queue timeout elapsed")
	}
	<-s2.sem
}

// TestExplainStatsHealth covers the introspection endpoints end to end.
func TestExplainStatsHealth(t *testing.T) {
	db := buildTestDB(t)
	_, client := startServer(t, db, Options{})
	plan, err := client.Explain("SELECT id FROM images WHERE contains_object('cloak')", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, wantSub := range []string{"Scan images (40 rows)", "contains_object(cloak)"} {
		if !strings.Contains(plan, wantSub) {
			t.Fatalf("explain missing %q:\n%s", wantSub, plan)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 40 || len(st.Predicates) != 2 {
		t.Fatalf("stats: rows=%d predicates=%v", st.Rows, st.Predicates)
	}
	resp, err := http.Get(client.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	// Bad SQL is a 400 with a JSON error, not a 500.
	if _, err := client.Query("DELETE FROM images", QueryOptions{}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("expected 400 for bad SQL, got %v", err)
	}
	// Context cancellation while queued surfaces as a client error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, client.base+"/query?sql=SELECT+COUNT(*)+FROM+images", nil)
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request did not error")
	}
}

// TestStatsMaterialization: repeat queries over HTTP flip to the bitmap
// path, and GET /stats reports the materialization layer (coverage, hit and
// miss counters, usage table) beside the store's record cache: the only two
// caches, each with its own footprint.
func TestStatsMaterialization(t *testing.T) {
	_, client := startServer(t, buildStoreDB(t, t.TempDir()), Options{})

	const sql = "SELECT id FROM images WHERE contains_object('cloak')"
	cold, err := client.Query(sql, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Bitmap || cold.UDFCalls == 0 {
		t.Fatalf("cold query: bitmap=%v udf=%d", cold.Bitmap, cold.UDFCalls)
	}
	warm, err := client.Query(sql, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Bitmap || warm.UDFCalls != 0 || warm.MatHits != 40 {
		t.Fatalf("warm query: bitmap=%v udf=%d mat_hits=%d, want bitmap with 40 hits", warm.Bitmap, warm.UDFCalls, warm.MatHits)
	}
	if respKey(cold.Columns, cold.Rows, cold.Count) != respKey(warm.Columns, warm.Rows, warm.Count) {
		t.Fatal("bitmap path changed the result")
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	m := st.Materialization
	if m.Mode != "on" || m.Columns != 1 || m.CoveredRows != 40 {
		t.Fatalf("materialization stats: %+v", m)
	}
	if m.Hits < 40 || m.Misses == 0 {
		t.Fatalf("lookup counters: hits=%d misses=%d", m.Hits, m.Misses)
	}
	if len(m.Usage) == 0 || m.Usage[0].Category != "cloak" || m.Usage[0].Touches < 2 {
		t.Fatalf("usage table: %+v", m.Usage)
	}
	if st.StoreCache == nil || st.StoreCache.ResidentBytes == 0 || m.Bytes == 0 {
		t.Fatalf("store cache %+v, materialized bytes=%d: want both resident", st.StoreCache, m.Bytes)
	}
}

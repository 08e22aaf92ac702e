package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/vdb"
	"tahoma/internal/xform"
)

// TestStatsGoldenSchema pins the full GET /stats JSON schema — every key and
// its type, with the planner, materialization, durability and cache blocks
// all populated — as a golden file. The e2e harness, the bench sweeps and
// operators' dashboards all read this body; a renamed or retyped field is a
// breaking change that must show up in review as a golden diff, not as a
// silent downstream nil. Regenerate with -update (shared with the explain
// goldens).
func TestStatsGoldenSchema(t *testing.T) {
	// A store-backed durable DB is the fullest configuration: it makes every
	// optional /stats block (store_cache, durability) present.
	dir := t.TempDir()
	db := buildStoreDB(t, dir)
	if _, err := db.EnableDurability(vdb.DurabilityOptions{Dir: filepath.Join(dir, "wal")}); err != nil {
		t.Fatal(err)
	}

	s := New(db, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	client := NewClientWith(ts.URL, ClientOptions{MaxRetries: -1})

	// Exercise the paths whose accounting feeds optional sections: a content
	// query twice (inference, then the materialized path), a metadata query
	// (latency buckets), so selectivity, usage and histogram entries exist.
	for _, sql := range []string{
		"SELECT id FROM images WHERE contains_object('cloak')",
		"SELECT id FROM images WHERE contains_object('cloak')",
		"SELECT id, ts FROM images WHERE ts < 5",
	} {
		if _, err := client.Query(sql, QueryOptions{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: %d\n%s", resp.StatusCode, body)
	}

	schema, err := jsonSchemaOf(body)
	if err != nil {
		t.Fatalf("schema of /stats body: %v\n%s", err, body)
	}

	golden := filepath.Join("testdata", "stats_schema.golden.json")
	if *update {
		if err := os.WriteFile(golden, schema, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(schema, want) {
		t.Errorf("GET /stats schema changed (run with -update if intentional)\ngot:\n%s\nwant:\n%s", schema, want)
	}
}

// buildStoreDB assembles a DB over the system's eval split held in a
// representation store under dir, behind an 8 MiB record cache, with the
// system installed as cloak.
func buildStoreDB(t *testing.T, dir string) *vdb.DB {
	t.Helper()
	sys, splits := testSystem(t)
	store, err := repstore.Create(filepath.Join(dir, "store"), 16, 16,
		xform.Grid([]int{8, 16}, []img.ColorMode{img.RGB, img.Gray}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var images []*img.Image
	var meta []vdb.Metadata
	for i, e := range splits.Eval.Examples {
		images = append(images, e.Image)
		meta = append(meta, vdb.Metadata{ID: int64(i), Location: "corpus", Camera: "cam-1", TS: int64(i)})
	}
	if err := store.IngestAll(images); err != nil {
		t.Fatal(err)
	}
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := vdb.New(cm)
	if err := db.LoadCorpusFromStore(store, 8<<20, meta); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallPredicate("cloak", sys, 2); err != nil {
		t.Fatal(err)
	}
	return db
}

// jsonSchemaOf reduces a JSON document to its shape: every scalar value is
// replaced by its type name, arrays keep their first element's shape (plus
// the empty-array case), objects keep all keys. Counters and timings drop
// out; key renames, type changes and vanished sections remain.
func jsonSchemaOf(blob []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	return json.MarshalIndent(shapeOf(doc), "", "  ")
}

func shapeOf(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, vv := range x {
			out[k] = shapeOf(vv)
		}
		return out
	case []any:
		if len(x) == 0 {
			return []any{}
		}
		return []any{shapeOf(x[0])}
	case json.Number:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	default:
		return "unknown"
	}
}

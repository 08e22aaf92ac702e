package e2e

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite committed e2e traces from the generator")

// TestTracesCommitted pins the committed testdata/traces/*.json files to the
// trace generator: the replayed traffic is exactly what code review saw.
// Regenerate with -update after changing Mixes.
func TestTracesCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "traces")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("%v", err)
		}
	}
	seen := map[string]bool{}
	for _, tr := range Mixes(FixtureRows) {
		if seen[tr.Mix] {
			t.Fatalf("duplicate mix name %q", tr.Mix)
		}
		seen[tr.Mix] = true
		blob, err := MarshalTrace(tr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Mix, err)
		}
		path := filepath.Join(dir, tr.Mix+".json")
		if *update {
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatalf("%v", err)
			}
			continue
		}
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if !bytes.Equal(committed, blob) {
			t.Errorf("%s: committed trace is stale; regenerate with -update", path)
		}
		// The committed file must round-trip into the same trace the
		// generator produced — it is the replay's source of truth.
		loaded, err := LoadTrace(path)
		if err != nil {
			t.Fatalf("%v", err)
		}
		reblob, err := MarshalTrace(loaded)
		if err != nil {
			t.Fatalf("%v", err)
		}
		if !bytes.Equal(reblob, blob) {
			t.Errorf("%s: trace does not round-trip through its JSON form", path)
		}
	}
}

// TestTraceDeterminismRules enforces the trace-authorship contract that
// makes the serial reference replay order-equivalent to every concurrent
// interleaving: a mix that ingests may only run non-barrier queries pinned
// to the stable initial corpus, and ingested IDs never collide with fixture
// rows.
func TestTraceDeterminismRules(t *testing.T) {
	for _, tr := range Mixes(FixtureRows) {
		if tr.Concurrency <= 0 {
			t.Errorf("%s: no concurrency", tr.Mix)
		}
		hasIngest := !tr.QueryOnly()
		ids := map[int64]bool{}
		for i, op := range tr.Ops {
			switch op.Kind {
			case "query":
				if hasIngest && !op.Barrier && !stableQuery(op.SQL) {
					t.Errorf("%s op %d: concurrent query %q in an ingesting mix is not pinned to the stable corpus (ts < %d)",
						tr.Mix, i, op.SQL, ingestBaseID)
				}
			case "ingest":
				if len(op.IDs) == 0 || len(op.IDs) != len(op.Src) {
					t.Errorf("%s op %d: malformed ingest op", tr.Mix, i)
				}
				for k, id := range op.IDs {
					if id < ingestBaseID {
						t.Errorf("%s op %d: ingest ID %d collides with the fixture corpus", tr.Mix, i, id)
					}
					if ids[id] {
						t.Errorf("%s op %d: duplicate ingest ID %d", tr.Mix, i, id)
					}
					ids[id] = true
					if op.Src[k] < 0 || op.Src[k] >= FixtureRows {
						t.Errorf("%s op %d: source index %d out of range", tr.Mix, i, op.Src[k])
					}
				}
			default:
				t.Errorf("%s op %d: unknown kind %q", tr.Mix, i, op.Kind)
			}
		}
	}
}

// stableQuery recognizes the guards that pin a query's answer to the initial
// corpus while ingest runs concurrently.
func stableQuery(sql string) bool {
	for _, guard := range []string{"ts < 1000", "ts < 10", "location = 'corpus'"} {
		if bytes.Contains([]byte(sql), []byte(guard)) {
			return true
		}
	}
	return false
}

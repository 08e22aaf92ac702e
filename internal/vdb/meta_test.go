package vdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tahoma/internal/bitset"
	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/wal"
)

// TestStringEqualityPrunesBlocks: over corpus rows in 'corpus' followed by
// appended rows in 'gate', four complete blocks and a trailing one, each
// block's location code set decides location = 'gate' alone — the corpus
// blocks skipped, the gate blocks filled a word at a time — so the filter
// compares no row; so do != and a literal no row holds.
func TestStringEqualityPrunesBlocks(t *testing.T) {
	const corpus, gate = 2 * zoneRows, 2*zoneRows + 100
	rows := func(base, n int, location string) []Metadata {
		meta := make([]Metadata, n)
		for i := range meta {
			meta[i] = Metadata{ID: int64(base + i), Location: location, Camera: "cam-0", TS: int64(base + i)}
		}
		return meta
	}
	db := buildSysDB(t)
	if err := db.LoadCorpus(cycledImages(corpus), rows(0, corpus, "corpus")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(cycledImages(gate), rows(corpus, gate, "gate")); err != nil {
		t.Fatal(err)
	}
	st := db.state.Load()
	eq := compileConds(t, &st.meta, []MetaCond{{Column: "location", Op: OpEq, Val: Value{IsString: true, Str: "gate"}}})
	for b, z := range append(slices.Clone(st.zones), st.tail) {
		want := blockAll
		if b < corpus/zoneRows {
			want = blockNone
		}
		if got := z.over(&eq[0]); got != want {
			t.Fatalf("block %d (locations %#x): verdict %d, want %d", b, z.locations, got, want)
		}
	}
	for _, c := range []struct {
		op    CompareOp
		lit   string
		count int
	}{{OpEq, "gate", gate}, {OpNe, "gate", corpus}, {OpEq, "roof", 0}, {OpLt, "dock", corpus}} {
		filters := compileConds(t, &st.meta, []MetaCond{{Column: "location", Op: c.op, Val: Value{IsString: true, Str: c.lit}}})
		live := bitset.New(st.n)
		live.SetAll()
		if compared := filterRows(live, &st.meta, st.zones, st.tail, filters); compared != 0 || live.Count() != c.count {
			t.Fatalf("location %s '%s': %d rows live, %d compared; want %d and 0", c.op, c.lit, live.Count(), compared, c.count)
		}
		sql := fmt.Sprintf("SELECT COUNT(*) FROM images WHERE location %s '%s'", c.op, c.lit)
		if res, err := db.Query(sql, core.Constraints{}); err != nil || res.Count != c.count {
			t.Fatalf("%s: %+v, %v; want %d", sql, res, err, c.count)
		}
	}
}

// randomMeta is n rows with ids and ts drawn at random and string values
// that repeat, pass 64 distinct cameras, and include the empty string and
// multi-byte UTF-8.
func randomMeta(rng *rand.Rand, n int) []Metadata {
	meta := make([]Metadata, n)
	for i := range meta {
		meta[i] = Metadata{
			ID:       rng.Int63() - rng.Int63(),
			TS:       rng.Int63n(1 << 40),
			Location: []string{"gate", "", "Zürich", "dock"}[rng.Intn(4)],
			Camera:   fmt.Sprintf("cam-%d", rng.Intn(100)),
		}
	}
	return meta
}

// TestDurableBytesFromColumns: for random tables, what a durable DB writes
// is what the Metadata rows it was given encode to. The baseline checkpoint
// and the one after two appends, encoded from the DB's columns, equal the
// checkpoint encoded from the rows with the same state and labels; each
// journaled batch equals its rows' recAppend record. Recovery decodes the
// checkpoint into columns that give back the same rows.
func TestDurableBytesFromColumns(t *testing.T) {
	env := durSetup(t)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := len(env.images)
		meta := randomMeta(rng, n)
		storeDir, walDir := t.TempDir(), t.TempDir()
		store := env.createStore(t, storeDir, n/2)
		db := env.newDB(t, store, meta[:n/2], false)
		if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
			t.Fatal(err)
		}
		checkCkpt := func(what string, want []Metadata) {
			t.Helper()
			data, err := os.ReadFile(filepath.Join(walDir, checkpointName))
			if err != nil {
				t.Fatal(err)
			}
			ck, err := decodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			ck.meta = want
			path := filepath.Join(t.TempDir(), checkpointName)
			if err := writeCheckpoint(path, ck); err != nil {
				t.Fatal(err)
			}
			if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("seed %d, %s: the DB's %d-byte checkpoint is not the rows' encoding (%v)", seed, what, len(data), err)
			}
		}
		checkCkpt("baseline", meta[:n/2])

		seq := db.wal.NextSeq()
		batches := [][2]int{{n / 2, 3 * n / 4}, {3 * n / 4, n}}
		for _, b := range batches {
			if _, err := db.Append(env.images[b[0]:b[1]], meta[b[0]:b[1]]); err != nil {
				t.Fatal(err)
			}
		}
		journal := t.TempDir()
		copyDir(t, walDir, journal)
		log, _, err := wal.Open(journal, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		if _, err := log.Replay(seq, func(r wal.Record) error {
			if r.Type == recAppend {
				got = append(got, slices.Clone(r.Data))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		log.Close()
		if len(got) != len(batches) {
			t.Fatalf("seed %d: %d append records, want %d", seed, len(got), len(batches))
		}
		for i, b := range batches {
			recs := make([]img.Record, 0, b[1]-b[0])
			for _, im := range env.images[b[0]:b[1]] {
				raw, err := img.AppendRecord(nil, im)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := img.ParseRecord(raw)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
			}
			if want := appendRecBytes(t, uint64(b[0]), meta[b[0]:b[1]], recs, false); !bytes.Equal(got[i], want) {
				t.Fatalf("seed %d: append record %d is %d bytes, not its rows' %d", seed, i, len(got[i]), len(want))
			}
		}

		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkCkpt("after appends", meta)
		if err := db.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		db2 := env.newDB(t, env.openStore(t, storeDir), placeholderMeta(n), false)
		if _, err := db2.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, fmt.Sprintf("seed %d, recovered", seed), db2.state.Load(), meta)
		if err := db2.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResidentBytesPerRow: a DB over 10⁵ store-backed rows keeps at most 28
// bytes of heap a row for their metadata, when every row's strings arrive
// allocated on their own, as JSON decoding allocates them: the rows are held
// as 24 bytes of columns, and only a dictionary's first copy of each value
// stays live.
func TestResidentBytesPerRow(t *testing.T) {
	const n = 100000
	store, err := repstore.Create(t.TempDir(), 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ims := make([]*img.Image, n)
	for i := range ims {
		ims[i] = img.New(1, 1, img.RGB)
	}
	if err := store.IngestAll(ims); err != nil {
		t.Fatal(err)
	}
	ims = nil
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := New(cm)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	meta := make([]Metadata, n)
	for i := range meta {
		meta[i] = Metadata{
			ID: int64(i), TS: int64(i),
			Location: strings.Clone([]string{"gate", "dock", "yard"}[i%3]),
			Camera:   strings.Clone(fmt.Sprintf("cam-%d", i%8)),
		}
	}
	if err := db.LoadCorpusFromStore(store, 1<<20, meta); err != nil {
		t.Fatal(err)
	}
	meta = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if perRow := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n; perRow > 28 {
		t.Fatalf("the heap grew by %.1f bytes a row over %d rows, want at most 28", perRow, n)
	}
	if db.Count() != n {
		t.Fatalf("%d rows, want %d", db.Count(), n)
	}
}

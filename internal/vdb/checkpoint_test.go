package vdb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// ckptQueries are the answers a checkpoint sweep holds fixed: one per
// materialized column, and one over the metadata alone.
var ckptQueries = []string{
	"SELECT id FROM images WHERE contains_object('cloak')",
	"SELECT id FROM images WHERE contains_object('cloakb')",
	"SELECT id FROM images WHERE ts >= 5",
}

// ckptAnswers runs ckptQueries on db. served reports whether every content
// query came from materialized columns alone, with no classifier call.
func ckptAnswers(t *testing.T, db *DB) (answers []string, served bool) {
	t.Helper()
	served = true
	for i, sql := range ckptQueries {
		res, err := db.Query(sql, chaosCons)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		answers = append(answers, resultKey(res))
		if i < 2 && (!res.Bitmap || res.UDFCalls != 0) {
			served = false
		}
	}
	return answers, served
}

// ckptDB is newDB with a second predicate, so a checkpoint holds two
// materialized columns.
func ckptDB(t *testing.T, env *durEnv, dir string, metas []Metadata) *DB {
	t.Helper()
	db := env.newDB(t, env.openStore(t, dir), metas, true)
	if err := db.InstallPredicate("cloakb", env.sys, 2); err != nil {
		t.Fatal(err)
	}
	return db
}

// ckptFixture builds a store of n rows, materializes both predicates' columns
// over it through a durable DB and shuts that DB down. It returns the store
// directory, the checkpoint the shutdown wrote, and the answers the DB gave.
func ckptFixture(t *testing.T, env *durEnv, n int) (storeDir string, ckpt []byte, want []string) {
	t.Helper()
	storeDir, walDir := t.TempDir(), t.TempDir()
	env.createStore(t, storeDir, n)
	db := ckptDB(t, env, storeDir, env.metas[:n])
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	want, _ = ckptAnswers(t, db)
	if err := db.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(walDir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(ckpt)
	if err != nil || len(ck.cols) != 2 || len(ck.meta) != n {
		t.Fatalf("fixture checkpoint: %v (%d columns)", err, len(ck.cols))
	}
	return storeDir, ckpt, want
}

// TestCheckpointDamageRefused: every single-byte flip of a real checkpoint,
// every truncation of it and one trailing byte make EnableDurability fail,
// without a panic, and leave the DB answering exactly as before. So does an
// intact checkpoint that acknowledges more rows than the store holds. The
// intact checkpoint then loads, and serves both columns with no classifier
// call: the sweep is refusing damage, not everything.
func TestCheckpointDamageRefused(t *testing.T) {
	env := durSetup(t)
	const n = 12
	storeDir, ckpt, want := ckptFixture(t, env, n)

	// Placeholder metadata: a checkpoint applied even in part changes the
	// ids every query returns.
	db := ckptDB(t, env, storeDir, placeholderMeta(n))
	before := map[*DB][]string{}
	before[db], _ = ckptAnswers(t, db)
	if slices.Equal(before[db], want) {
		t.Fatal("fixture cannot tell the checkpoint's state from the placeholder's")
	}
	dir := t.TempDir()
	try := func(t *testing.T, db *DB, what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		count, answers := db.Count(), before[db]
		if _, err := db.EnableDurability(DurabilityOptions{Dir: dir}); err == nil {
			t.Fatalf("%s: accepted", what)
		}
		if got, _ := ckptAnswers(t, db); db.Count() != count || !slices.Equal(got, answers) {
			t.Fatalf("%s: the refused checkpoint changed the DB", what)
		}
	}
	t.Run("byte flips", func(t *testing.T) {
		for off := range ckpt {
			damaged := slices.Clone(ckpt)
			damaged[off] ^= 0xFF
			try(t, db, fmt.Sprintf("flip at %d", off), damaged)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := range ckpt {
			try(t, db, fmt.Sprintf("cut at %d", cut), ckpt[:cut])
		}
	})
	t.Run("trailing byte", func(t *testing.T) {
		try(t, db, "trailing byte", append(slices.Clone(ckpt), 0))
	})
	// The store-count check is what refuses a checkpoint for another corpus.
	t.Run("store shorter than the checkpoint", func(t *testing.T) {
		short := t.TempDir()
		env.createStore(t, short, n-4)
		other := ckptDB(t, env, short, env.metas[:n-4])
		before[other], _ = ckptAnswers(t, other)
		try(t, other, "store shorter than the checkpoint", ckpt)
	})
	t.Run("intact checkpoint serves its columns", func(t *testing.T) {
		if err := os.WriteFile(filepath.Join(dir, checkpointName), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := db.EnableDurability(DurabilityOptions{Dir: dir}); err != nil || !st.CheckpointLoaded || st.Rows != n {
			t.Fatalf("intact checkpoint: %+v, %v", st, err)
		}
		got, served := ckptAnswers(t, db)
		if !slices.Equal(got, want) {
			t.Fatalf("recovered answers differ:\n got %q\nwant %q", got, want)
		}
		if !served {
			t.Fatal("a restart from the checkpoint re-classified rows its columns hold")
		}
		if err := db.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointFrameLengthAllocatesNothing: a frame claiming the largest
// length a u32 holds, in a file of a few bytes, is refused before anything
// its length implies is allocated.
func TestCheckpointFrameLengthAllocatesNothing(t *testing.T) {
	data := binary.LittleEndian.AppendUint32([]byte(ckptMagic), 1<<32-1)
	data = append(data, "not much else"...)
	var err error
	if got := allocatedBy(func() { _, err = decodeCheckpoint(data) }); err == nil || got > 64<<10 {
		t.Fatalf("%d-byte file claiming a 4 GiB frame: err %v, allocated %d bytes", len(data), err, got)
	}
}

// FuzzCheckpoint holds the checkpoint decoder — everything recovery parses
// out of checkpoint.ckp before it changes the DB — to three properties on
// arbitrary input: it never panics; it never allocates more than a small
// multiple of the bytes it was given, whatever the lengths and counts inside
// claim; and what it accepts is consistent, with no column spanning a row the
// metadata lacks and no label on a row that has none. The committed corpus
// (testdata/fuzz/FuzzCheckpoint) holds a real two-column TAHCKP2 file.
func FuzzCheckpoint(f *testing.F) {
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			ck  *checkpoint
			err error
		)
		got := allocatedBy(func() { ck, err = decodeCheckpoint(data) })
		// The worst case is the JSON section: "{}," decodes into a 48-byte
		// usage entry, in a slice that grows in 1.25x steps, about 80 bytes
		// allocated per byte read. A length or count the bytes do not back
		// would allocate far more.
		if limit := uint64(128*len(data) + 64<<10); got > limit {
			t.Fatalf("%d-byte input: decoder allocated %d bytes, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		for k, col := range ck.cols {
			if col.Len() > len(ck.meta) {
				t.Fatalf("column %v spans %d rows of %d", k, col.Len(), len(ck.meta))
			}
			for i := range col.Len() {
				if col.Label(i) && !col.Valid(i) {
					t.Fatalf("column %v labels row %d without validating it", k, i)
				}
			}
		}
	})
}

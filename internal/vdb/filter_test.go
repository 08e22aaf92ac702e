package vdb

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/img"
)

// TestZoneVerdictSound checks, exhaustively over small ranges, that the block
// index never decides a block it should have scanned: "all" only when every
// value in the block's range passes, "none" only when no value can.
func TestZoneVerdictSound(t *testing.T) {
	for op := range acceptOrders {
		for lo := int64(-3); lo <= 3; lo++ {
			for hi := lo; hi <= 3; hi++ {
				for lit := int64(-4); lit <= 4; lit++ {
					f, err := compileFilter(MetaCond{Column: "ts", Op: op, Val: Value{Int: lit}})
					if err != nil {
						t.Fatal(err)
					}
					pass, fail := 0, 0
					for v := lo; v <= hi; v++ {
						if f.match(&Metadata{TS: v}) {
							pass++
						} else {
							fail++
						}
					}
					switch v := f.over(lo, hi); {
					case v == blockAll && fail > 0, v == blockNone && pass > 0:
						t.Fatalf("ts %s %d over [%d,%d]: verdict %d with %d passing and %d failing values", op, lit, lo, hi, v, pass, fail)
					case v == blockSome && (pass == 0 || fail == 0) && lo == hi:
						t.Fatalf("ts %s %d over the single value %d: undecided", op, lit, lo)
					}
				}
			}
		}
	}
}

// TestZonesFollowAppends: the block index gains an entry exactly when an
// append completes a block, an entry never changes afterwards, and a state
// pinned before the append keeps the index it was published with.
func TestZonesFollowAppends(t *testing.T) {
	sysFixture(t)
	rng := rand.New(rand.NewSource(5))
	rows := func(n int) ([]*img.Image, []Metadata) {
		meta := make([]Metadata, n)
		for i := range meta {
			meta[i] = Metadata{ID: int64(rng.Intn(1 << 20)), TS: int64(rng.Intn(1 << 20))}
		}
		return cycledImages(n), meta
	}
	db := buildSysDB(t)
	ims, meta := rows(zoneRows - 10)
	if err := db.LoadCorpus(ims, meta); err != nil {
		t.Fatal(err)
	}
	before := db.state.Load()
	if len(before.zones) != 0 {
		t.Fatalf("%d zones over %d rows, want none (no complete block)", len(before.zones), before.n)
	}
	all := append([]Metadata(nil), meta...)
	for _, batch := range []int{10, 1, zoneRows - 1, 3 * zoneRows, 5} {
		ims, meta := rows(batch)
		if _, err := db.Append(ims, meta); err != nil {
			t.Fatal(err)
		}
		all = append(all, meta...)
		st := db.state.Load()
		if want := extendZones(nil, all); st.n != len(all) || !reflect.DeepEqual(st.zones, want) {
			t.Fatalf("after appending %d rows (%d total): zones %+v, want %+v", batch, st.n, st.zones, want)
		}
	}
	if before.n != zoneRows-10 || len(before.zones) != 0 {
		t.Fatalf("a pinned state changed under its reader: %d rows, %d zones", before.n, len(before.zones))
	}
}

// TestZonesRebuiltOnRecovery: zones are derived state. Recovery rebuilds them
// from the checkpoint's metadata, extends them through the replayed journal,
// and a recovery that yields fewer rows than the caller loaded (a journal
// tail that never committed) leaves an index over exactly the recovered rows.
func TestZonesRebuiltOnRecovery(t *testing.T) {
	env := durSetup(t)
	rows := func(base, n int) ([]*img.Image, []Metadata) {
		ims, meta := make([]*img.Image, n), make([]Metadata, n)
		for i := range meta {
			ims[i] = env.images[(base+i)%len(env.images)]
			meta[i] = Metadata{ID: int64(base + i), Location: "disk", TS: int64(7 * (base + i))}
		}
		return ims, meta
	}
	storeDir, walDir := t.TempDir(), t.TempDir()
	ims, meta := rows(0, zoneRows-24)
	store := env.createStore(t, storeDir, 0)
	if err := store.IngestAll(ims); err != nil {
		t.Fatal(err)
	}
	db := New(env.cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, meta); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	all := append([]Metadata(nil), meta...)
	appendRows := func(n int) {
		ims, meta := rows(len(all), n)
		if _, err := db.Append(ims, meta); err != nil {
			t.Fatal(err)
		}
		all = append(all, meta...)
	}
	appendRows(100) // completes block 0; lands in the checkpoint
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointed := len(all)
	appendRows(zoneRows) // completes block 1; lives only in the journal
	if got := db.state.Load().zones; len(got) != 2 || !reflect.DeepEqual(got, extendZones(nil, all)) {
		t.Fatalf("live zones %+v, want %+v", got, extendZones(nil, all))
	}

	recoverInto := func(wdir string) *DB {
		sdir := t.TempDir()
		copyDir(t, storeDir, sdir)
		st2 := env.openStore(t, sdir)
		// The caller's metadata is a placeholder: its zones are all zero and
		// must not survive recovery.
		db2 := New(env.cm)
		if err := db2.LoadCorpusFromStore(st2, 1<<20, placeholderMeta(st2.Count())); err != nil {
			t.Fatal(err)
		}
		if _, err := db2.EnableDurability(DurabilityOptions{Dir: wdir}); err != nil {
			t.Fatal(err)
		}
		return db2
	}
	check := func(name string, db2 *DB, want []Metadata) {
		t.Helper()
		st := db2.state.Load()
		if st.n != len(want) || !reflect.DeepEqual(st.zones, extendZones(nil, want)) || len(st.zones) != len(want)/zoneRows {
			t.Fatalf("%s: %d rows with zones %+v, want %d rows with %+v", name, st.n, st.zones, len(want), extendZones(nil, want))
		}
		// A ts window over rows [1050, 1200): it straddles the block edge and
		// the checkpointed row count.
		res, err := db2.Query("SELECT COUNT(*) FROM images WHERE ts >= 7350 AND ts < 8400", core.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if wantCount := min(len(want), 1200) - 1050; res.Count != wantCount {
			t.Fatalf("%s: window count %d, want %d", name, res.Count, wantCount)
		}
	}

	// Full journal: checkpoint (one block) + replay (a second).
	full := t.TempDir()
	copyDir(t, walDir, full)
	check("checkpoint + replay", recoverInto(full), all)

	// The journal's last record torn off: recovery stops at the checkpoint,
	// over a store (and caller metadata) that holds a block more.
	torn := t.TempDir()
	copyDir(t, walDir, torn)
	segs, err := filepath.Glob(filepath.Join(torn, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments: %v (%v)", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-9); err != nil {
		t.Fatal(err)
	}
	check("torn journal tail", recoverInto(torn), all[:checkpointed])
}

package vdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
)

// Crash-point enumeration for the ingest protocol: ingest → publish →
// checkpoint → journal truncate. A scripted run — three appends, a
// checkpoint, two more appends — reaches a fixed sequence of durability-layer
// calls (the fs.* fault points: every store data write, journal frame write,
// fsync, manifest and checkpoint write). The test counts them on a clean run
// and then, for every one of them in turn, makes exactly that call fail,
// abandons the DB where the failure left it, takes what a power loss would
// leave of its files, and recovers.
//
// What power loss leaves: of each store data file, the rows the manifest
// vouches for — everything past them was never fsynced, so it is cut, or left
// in place zeroed, or left as garbage; of the journal, everything up to the
// last acknowledged append's fsync plus an arbitrary prefix of what was
// written after it.
//
// What recovery must produce: the acknowledged batches exactly — plus the
// batch in flight when its journal frame happened to survive whole, which is
// a legitimate outcome of an unacknowledged write — with metadata equal,
// every source record byte-identical to what was sent, query results (served
// from the recovered trigger labels) identical to a corpus that never
// crashed, and a DB that ingests and restarts again.

const (
	crashBaseRows = 12
	crashCkptStep = 3 // the checkpoint follows this many appends
)

var crashBatches = []int{2, 3, 2, 3, 2}

// crashScript runs the scripted workload until its first failure and returns
// how many batches were acknowledged and how many were attempted, and the
// journal's length at the last acknowledgement. Every acknowledged append
// leaves the journal fully synced, so that length is what survives for sure.
func crashScript(env *durEnv, db *DB, walDir string) (acked, attempted int, synced int64) {
	synced = journalLen(walDir)
	n := crashBaseRows
	for i, b := range crashBatches {
		if i == crashCkptStep {
			if err := db.Checkpoint(); err != nil {
				return acked, attempted, synced
			}
		}
		attempted++
		if _, err := db.Append(env.images[n:n+b], env.metas[n:n+b]); err != nil {
			return acked, attempted, synced
		}
		acked++
		n += b
		synced = journalLen(walDir)
	}
	return acked, attempted, synced
}

// journalLen is the size of the journal's one segment (0 before the first
// append creates it).
func journalLen(walDir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if len(segs) != 1 {
		return 0
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		return 0
	}
	return fi.Size()
}

func batchRows(batches int) int {
	n := crashBaseRows
	for _, b := range crashBatches[:batches] {
		n += b
	}
	return n
}

// powerLossStore rewrites the un-vouched tail of every data file in a copied
// store directory: cut, zero-filled or garbage-filled.
func powerLossStore(t *testing.T, dir string, env *durEnv, how int, rng *rand.Rand) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m repstore.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	files := map[string]int{"source.dat": img.EncodedSize(m.BaseW, m.BaseH, img.RGB)}
	for _, tr := range env.grid {
		files["rep-"+strings.ReplaceAll(tr.ID(), "/", "_")+".dat"] = tr.StoredBytes()
	}
	for name, record := range files {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		keep := m.Count * record
		if len(data) < keep {
			t.Fatalf("%s holds %d bytes, manifest vouches for %d", name, len(data), keep)
		}
		switch how {
		case 0:
			data = data[:keep]
		case 1:
			clear(data[keep:])
		default:
			rng.Read(data[keep:])
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashPointEnumeration(t *testing.T) {
	defer faults.Reset()
	env := durSetup(t)
	points := []string{faults.FSWriteError, faults.FSShortWrite, faults.FSSyncError}

	// What was sent, as stored bytes.
	sent := make([][]byte, len(env.images))
	for i, im := range env.images {
		var err error
		if sent[i], err = img.AppendRecord(nil, im); err != nil {
			t.Fatal(err)
		}
	}

	// The template every run starts from: a store and a journal directory
	// holding the baseline checkpoint.
	tmplStore, tmplWal := t.TempDir(), t.TempDir()
	{
		store := env.createStore(t, tmplStore, crashBaseRows)
		db := env.newDB(t, store, env.metas[:crashBaseRows], false)
		if _, err := db.EnableDurability(DurabilityOptions{Dir: tmplWal}); err != nil {
			t.Fatal(err)
		}
	}
	start := func() (db *DB, storeDir, walDir string) {
		storeDir, walDir = t.TempDir(), t.TempDir()
		copyDir(t, tmplStore, storeDir)
		copyDir(t, tmplWal, walDir)
		store := env.openStore(t, storeDir)
		db = env.newDB(t, store, placeholderMeta(store.Count()), true)
		if _, err := db.EnableDurability(DurabilityOptions{Dir: walDir}); err != nil {
			t.Fatal(err)
		}
		return db, storeDir, walDir
	}

	// The clean run: count each point's hits without firing any.
	hits := map[string]int{}
	{
		for _, p := range points {
			if err := faults.Enable(p, faults.Spec{Skip: 1 << 30}); err != nil {
				t.Fatal(err)
			}
		}
		db, _, walDir := start()
		if acked, _, _ := crashScript(env, db, walDir); acked != len(crashBatches) {
			t.Fatalf("clean run acknowledged %d of %d batches", acked, len(crashBatches))
		}
		for _, p := range points {
			hits[p] = int(faults.Hits(p))
		}
		faults.Reset()
		db.wal.Close()
		if hits[faults.FSSyncError] < len(crashBatches)+2 || hits[faults.FSWriteError] < 2*len(crashBatches)+2 {
			t.Fatalf("clean run reached implausibly few fault points: %v", hits)
		}
	}

	stride := 1
	if testing.Short() || raceEnabled {
		stride = 3
	}
	refCache := map[int]map[int64]bool{}
	rng := rand.New(rand.NewSource(1))
	runs, recoveries := 0, 0
	for _, point := range points {
		for k := 0; k < hits[point]; k += stride {
			db, storeDir, walDir := start()
			if err := faults.Enable(point, faults.Spec{Skip: k, Times: 1}); err != nil {
				t.Fatal(err)
			}
			acked, attempted, synced := crashScript(env, db, walDir)
			if len(faults.Active()) != 0 {
				t.Fatalf("%s hit %d never fired", point, k)
			}
			faults.Reset()
			if acked == len(crashBatches) {
				t.Fatalf("%s hit %d: every batch was acknowledged despite the injected failure", point, k)
			}
			db.wal.Close() // the abandoned process is gone; its files are what is left
			runs++

			// The journal as the crash left it, and where the first frame
			// written after the last acknowledgement ends: if the in-flight
			// batch's record survives whole, recovery keeps the batch.
			var seg string
			var journal []byte
			if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) == 1 {
				seg = filepath.Base(segs[0])
				var err error
				if journal, err = os.ReadFile(segs[0]); err != nil {
					t.Fatal(err)
				}
			}
			tail := int64(len(journal)) - synced
			firstFrameEnd := int64(-1)
			if from := max(synced, 8); tail > 0 && from+4 <= int64(len(journal)) {
				firstFrameEnd = from + 8 + int64(binary.LittleEndian.Uint32(journal[from:]))
			}
			cuts := []int64{synced}
			if tail > 0 {
				cuts = append(cuts, synced+1, synced+tail/2, synced+tail-1, synced+tail)
			}
			for v, cut := range cuts {
				name := fmt.Sprintf("%s hit %d, journal cut at %d of %d (synced %d), store tail variant %d", point, k, cut, len(journal), synced, v%3)
				sdir, wdir := t.TempDir(), t.TempDir()
				copyDir(t, storeDir, sdir)
				powerLossStore(t, sdir, env, v%3, rng)
				ckpt, err := os.ReadFile(filepath.Join(walDir, checkpointName))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(wdir, checkpointName), ckpt, 0o644); err != nil {
					t.Fatal(err)
				}
				if seg != "" {
					if err := os.WriteFile(filepath.Join(wdir, seg), journal[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
				}

				wantRows := batchRows(acked)
				if attempted > acked && firstFrameEnd >= 0 && cut >= firstFrameEnd {
					wantRows = batchRows(attempted)
				}
				st2 := env.openStore(t, sdir)
				db2 := env.newDB(t, st2, placeholderMeta(st2.Count()), true)
				rstats, err := db2.EnableDurability(DurabilityOptions{Dir: wdir})
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", name, err)
				}
				recoveries++
				if rstats.Rows != wantRows || db2.Count() != wantRows || st2.Count() != wantRows {
					t.Fatalf("%s: recovered %d rows (db %d, store %d), want %d (%d of %d batches acknowledged)",
						name, rstats.Rows, db2.Count(), st2.Count(), wantRows, acked, attempted)
				}
				var scratch []byte
				for i := 0; i < wantRows; i++ {
					if got := db2.meta.row(i); got != env.metas[i] {
						t.Fatalf("%s: row %d metadata %+v, want %+v", name, i, got, env.metas[i])
					}
					rec, err := st2.SourceRecord(i, &scratch)
					if err != nil {
						t.Fatalf("%s: row %d: %v", name, i, err)
					}
					if !bytes.Equal(rec.AppendTo(nil), sent[i]) {
						t.Fatalf("%s: row %d's stored record differs from what was sent", name, i)
					}
				}
				res, err := db2.Query(chaosSQL, chaosCons)
				if err != nil {
					t.Fatalf("%s: query over recovered DB: %v", name, err)
				}
				sameRows(t, name, chaosRows(t, res), env.refRows(t, refCache, wantRows))
				// Acknowledged batches' trigger labels were fsynced with them:
				// only an unacknowledged survivor may need inference.
				if acked > 0 && res.UDFCalls > wantRows-batchRows(acked) {
					t.Fatalf("%s: query re-inferred %d rows; only %d were recovered unacknowledged", name, res.UDFCalls, wantRows-batchRows(acked))
				}

				// The recovered DB ingests and restarts again.
				if _, err := db2.Append(env.images[:1], []Metadata{{ID: 9000, Location: "disk", TS: 9000}}); err != nil {
					t.Fatalf("%s: append on recovered DB: %v", name, err)
				}
				db2.wal.Close()
				st3 := env.openStore(t, sdir)
				db3 := env.newDB(t, st3, placeholderMeta(st3.Count()), false)
				rr, err := db3.EnableDurability(DurabilityOptions{Dir: wdir})
				if err != nil || rr.Rows != wantRows+1 {
					t.Fatalf("%s: second recovery = %d rows, %v; want %d", name, rr.Rows, err, wantRows+1)
				}
				db3.wal.Close()
			}
		}
	}
	t.Logf("fault-point hits of a clean run: %v; %d failed runs, %d recoveries checked", hits, runs, recoveries)
}

package vdb

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/planner"
	"tahoma/internal/wal"
)

// Durability: the write side of the DB — Append batches, trigger labels,
// query- and analyzer-computed merges — journals through a write-ahead log
// and periodically collapses into an atomic checkpoint, so a process killed
// at any instant restarts into a state bit-identical to some prefix of the
// acknowledged writes.
//
// The journal is the one commit point of an acknowledged ingest. The
// invariants, in ack order within one Append:
//
//  1. the batch's rows are written to the repstore — no fsync, no manifest
//     update; nothing durable references them yet, so a failure here fails
//     the batch cleanly and a retry overwrites its own bytes;
//  2. the recAppend journal record — base row, metadata and the rows' stored
//     records, verbatim — is appended, and fsynced before Append returns: the
//     ack barrier, and the only fsync an acknowledged batch pays;
//  3. trigger-label merge records ride the same fsync.
//
// The store catches up at a checkpoint, which first makes it durable on its
// own terms (data fsync, then manifest) and only then writes the checkpoint
// and drops the journal prefix. Three invariants hold at every instant, and
// recovery needs nothing else:
//
//	(a) the store's manifest count ≤ the rows fsynced in every data file;
//	(b) the checkpoint's row count ≤ the store's manifest count;
//	(c) every row past the checkpoint has its record in the journal suffix
//	    the checkpoint's sequence number starts.
//
// Recovery walks them in that order. repstore.Open cuts every data file back
// to the manifest count — by (a) what remains is whole, and the bytes cut
// were never vouched for by the store. The checkpoint loads; by (b) the store
// still holds its rows. The journal suffix replays; by (c) a recAppend whose
// rows lie past the store's count carries them, and replay writes them back
// (idempotently: same records, same offsets, representations recomputed from
// the record), followed by one store sync. Store rows past the recovered
// count — an unacknowledged batch that a checkpoint's manifest happened to
// cover — are truncated away.
//
// Query- and analyzer-merge records are journaled lazily (written, no fsync):
// losing them only costs recomputation — cascades are deterministic, so a
// repeat query rebuilds bit-identical labels. They become durable with the
// next Append's commit or the next checkpoint.
//
// A checkpoint atomically (write temp, fsync, rename, fsync dir) captures
// meta, the materialized columns, the usage table and the selectivity
// catalog, stamped with the WAL sequence it is consistent with; the WAL
// prefix before it is then garbage-collected. Because the journal carries
// pixels it grows at the ingest byte rate, so the checkpointer fires on
// journal volume (checkpointJournalBytes) as well as on its period.

// WAL record types.
const (
	// recAppend journals one Append batch: base row, per-row metadata,
	// whether the append invalidated the materialized columns (trigger-less
	// appends do), and the rows' stored records. Fsynced before the Append is
	// acknowledged.
	recAppend byte = 1
	// recMergeFloat is recMerge as journaled while stored representations
	// were derived by the float32 resample. Its labels may differ from the
	// ones the integer derivation gives, and a materialized column is a
	// deterministic cache, so replay decodes it and drops it.
	recMergeFloat byte = 2
	// recMerge journals newly adopted rows of one materialized column —
	// trigger labels (fsynced with their append) and query/analyzer merges
	// (lazy).
	recMerge byte = 3
)

// checkpointJournalBytes is the journal volume past which an append asks the
// checkpointer to run now: it bounds the journal's disk use and the replay a
// crash leaves by bytes, as the checkpoint period bounds them by time.
const checkpointJournalBytes = 64 << 20

// DurabilityOptions configure EnableDurability.
type DurabilityOptions struct {
	// Dir holds the journal segments and the checkpoint file.
	Dir string
}

// RecoveryStats reports what EnableDurability restored.
type RecoveryStats struct {
	// CheckpointLoaded reports whether a checkpoint existed and was restored
	// (false on the first enable in a fresh directory).
	CheckpointLoaded bool
	// Replayed counts WAL records applied on top of the checkpoint;
	// TruncatedBytes is torn-tail damage the WAL reader repaired.
	Replayed       int64
	TruncatedBytes int64
	// Rows is the recovered row count; RecoveryMS the wall time of the whole
	// enable (checkpoint load + replay + reconciliation).
	Rows       int
	RecoveryMS int64
}

// DurabilityStats is the durability layer's observability snapshot,
// surfaced under "durability" in /stats.
type DurabilityStats struct {
	Enabled           bool    `json:"enabled"`
	WALSegments       int     `json:"wal_segments"`
	WALBytes          int64   `json:"wal_bytes"`
	WALRecords        int64   `json:"wal_records"`
	WALReplayed       int64   `json:"wal_replayed"`
	WALTruncatedBytes int64   `json:"wal_truncated_bytes"`
	Checkpoints       int64   `json:"checkpoints"`
	CheckpointAgeS    float64 `json:"checkpoint_age_s"`
	RecoveryMS        int64   `json:"recovery_ms"`
}

const checkpointName = "checkpoint.ckp"

// EnableDurability opens (or creates) the journal in o.Dir, recovers the
// newest checkpoint plus the WAL tail into the DB, reconciles the backing
// repstore, and switches every subsequent Append into write-ahead mode.
//
// The corpus must be store-backed (LoadCorpusFromStore) — durability is
// about surviving restarts, and an in-memory corpus cannot. On the first
// enable in a fresh directory the DB's current state becomes the baseline
// checkpoint; on every later enable the checkpoint+journal REPLACE the
// caller-loaded metadata, journaled rows the store lost are written back from
// the journal, and store rows beyond the recovered count (unacknowledged
// tails) are truncated away.
//
// Call once at startup, before serving. While durable, LoadCorpus and
// LoadCorpusFromStore refuse to swap the corpus.
func (db *DB) EnableDurability(o DurabilityOptions) (RecoveryStats, error) {
	start := time.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.durable {
		return RecoveryStats{}, fmt.Errorf("vdb: durability already enabled")
	}
	// Recovery replaces the metadata and the columns; whatever it leaves —
	// on success or on a refused journal — is what statements must see.
	defer db.publishLocked()
	sc, ok := db.corpus.(*storeCorpus)
	if !ok {
		return RecoveryStats{}, fmt.Errorf("vdb: durability requires a store-backed corpus (LoadCorpusFromStore)")
	}

	log, info, err := wal.Open(o.Dir, wal.Options{})
	if err != nil {
		return RecoveryStats{}, err
	}
	stats := RecoveryStats{TruncatedBytes: info.TruncatedBytes}

	ckptPath := filepath.Join(o.Dir, checkpointName)
	ckpt, ckptErr := loadCheckpoint(ckptPath)
	switch {
	case ckptErr == nil:
		stats.CheckpointLoaded = true
	case os.IsNotExist(ckptErr):
		if info.Records > 0 {
			// A journal without its checkpoint cannot be replayed onto
			// anything: the records' base offsets assume checkpointed state.
			log.Close()
			return RecoveryStats{}, fmt.Errorf("vdb: journal in %s has %d records but no checkpoint — refusing to guess a baseline", o.Dir, info.Records)
		}
	default:
		log.Close()
		return RecoveryStats{}, ckptErr
	}

	if stats.CheckpointLoaded {
		if sc.store.Count() < len(ckpt.meta) {
			log.Close()
			return RecoveryStats{}, fmt.Errorf("vdb: store has %d rows but checkpoint acknowledges %d — store lost acknowledged data", sc.store.Count(), len(ckpt.meta))
		}
		// The checkpoint is decoded and verified whole: only now does it
		// replace whatever the caller loaded.
		db.meta = newMetaTable(ckpt.meta)
		db.zones = extendZones(nil, &db.meta)
		if ckpt.floatLabels {
			ckpt.cols = matstore.Columns{}
		}
		db.mat.Restore(ckpt.cols)
		db.mat.RestoreUsage(ckpt.state.Usage)
		db.catalog.Restore(ckpt.state.Catalog)

		replayed, err := log.Replay(ckpt.walSeq, func(r wal.Record) error {
			return db.applyRecordLocked(sc, r)
		})
		stats.Replayed = replayed
		if err != nil {
			log.Close()
			return RecoveryStats{}, fmt.Errorf("vdb: replaying journal: %w", err)
		}
		// Reconcile: store rows past the recovered count belong to a batch
		// whose journal commit never hit disk — never acknowledged. Then let
		// the store vouch for what replay wrote back, so the next crash does
		// not redo it.
		if err := sc.store.TruncateTo(db.meta.len()); err != nil {
			log.Close()
			return RecoveryStats{}, err
		}
		if err := sc.store.Sync(); err != nil {
			log.Close()
			return RecoveryStats{}, err
		}
	}

	db.wal = log
	db.ckptPath = ckptPath
	db.durable = true
	db.durStats.walReplayed = stats.Replayed
	db.durStats.walTruncatedBytes = stats.TruncatedBytes

	if !stats.CheckpointLoaded {
		// First enable: the current state (typically a pre-ingested corpus)
		// becomes the baseline checkpoint, so the journal always has ground
		// to replay onto.
		if err := db.checkpointLocked(); err != nil {
			db.durable = false
			db.wal = nil
			log.Close()
			return RecoveryStats{}, fmt.Errorf("vdb: baseline checkpoint: %w", err)
		}
	}
	stats.Rows = db.meta.len()
	stats.RecoveryMS = time.Since(start).Milliseconds()
	db.durStats.recoveryMS = stats.RecoveryMS
	return stats, nil
}

// applyRecordLocked replays one journal record onto the DB. Caller holds
// db.mu.
func (db *DB) applyRecordLocked(sc *storeCorpus, r wal.Record) error {
	switch r.Type {
	case recAppend:
		base, metas, recs, invalidate, err := decodeAppendRec(r.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Seq, err)
		}
		if base != uint64(db.meta.len()) {
			// The record does not extend the recovered prefix — a commit that
			// never fully landed. Everything after it is unreachable history.
			return wal.ErrTruncate
		}
		if end := int(base) + len(metas); sc.store.Count() < end {
			// Redo: the store was cut back to its manifest, which trails the
			// journal by up to a checkpoint period. The record carries the
			// rows; a record without them (written before the journal held
			// pixels) can only trust the store.
			if len(recs) == 0 {
				return fmt.Errorf("record %d acknowledges rows [%d,%d) but store has %d — store lost acknowledged data",
					r.Seq, base, end, sc.store.Count())
			}
			if err := sc.store.WriteRecords(int(base), recs); err != nil {
				return fmt.Errorf("record %d: rewriting rows [%d,%d): %w", r.Seq, base, end, err)
			}
		}
		db.meta.add(metas)
		db.zones = extendZones(db.zones, &db.meta)
		if invalidate {
			db.mat.Invalidate()
		}
	case recMerge, recMergeFloat:
		key, rows, labels, err := decodeMergeRec(r.Data)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Seq, err)
		}
		if r.Type == recMergeFloat {
			return nil
		}
		// Replay goes through the same publication as the live path. Only a
		// journal written while columns could still be evicted under a byte
		// budget can hold a row twice (its column evicted and rebuilt in
		// between); it carries the same label both times, so
		// first-writer-wins restores exactly what overwriting would.
		fresh := matstore.NewColumn()
		fresh.Grow(db.meta.len())
		for i, row := range rows {
			// A query that raced an in-flight append can journal labels for
			// rows whose append record never committed; clamp them out.
			if row < db.meta.len() {
				fresh.SetLabel(row, labels[i])
			}
		}
		db.mat.Publish(key, fresh, nil)
	default:
		return fmt.Errorf("record %d: unknown type %d", r.Seq, r.Type)
	}
	return nil
}

// Checkpoint makes the store vouch for every row it holds, atomically
// persists the DB's recoverable state — metadata, materialized columns, usage
// table, selectivity catalog — and garbage-collects the journal prefix that
// state supersedes. Safe to call concurrently with queries and appends: the data
// fsync of the rows appended since the last checkpoint, the expensive part,
// runs before the DB lock is taken, so ingest stalls only for the stragglers'
// sync, the manifest and the checkpoint file.
func (db *DB) Checkpoint() error {
	db.mu.RLock()
	sc, _ := db.corpus.(*storeCorpus)
	durable := db.durable
	db.mu.RUnlock()
	if !durable {
		return fmt.Errorf("vdb: durability not enabled")
	}
	// Two passes: the first covers everything since the last checkpoint and
	// takes long enough for more to arrive; the second covers that, and
	// leaves the sync under the lock a few batches at most.
	for range 2 {
		if err := sc.store.SyncData(); err != nil {
			return err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.durable {
		return fmt.Errorf("vdb: durability not enabled")
	}
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	// The store first: the checkpoint must never acknowledge a row the
	// manifest does not (invariant b), and the journal prefix that still
	// carries those rows is about to go.
	if err := db.corpus.(*storeCorpus).store.Sync(); err != nil {
		return err
	}
	// Serialize under the lock: the captured state and the WAL sequence it
	// is stamped with must agree (every record < seq is reflected in it,
	// journal writes happen under this same lock).
	seq := db.wal.NextSeq()
	ck := checkpoint{
		walSeq: seq,
		meta:   db.meta.rows(),
		state:  ckptState{Usage: db.mat.ExportUsage(), Catalog: db.catalog.Snapshot()},
		cols:   db.mat.Columns(),
	}
	if err := writeCheckpoint(db.ckptPath, &ck); err != nil {
		return err
	}
	if _, err := db.wal.TruncateBefore(seq); err != nil {
		return err
	}
	db.journaled = 0
	db.durStats.checkpoints++
	db.durStats.lastCheckpoint = time.Now()
	return nil
}

// noteJournaledLocked accounts n journaled bytes and, past
// checkpointJournalBytes, nudges the checkpointer. Caller holds db.mu.
func (db *DB) noteJournaledLocked(n int) {
	db.journaled += int64(n)
	if db.journaled > checkpointJournalBytes {
		select {
		case db.ckptKick <- struct{}{}:
		default: // one is already pending
		}
	}
}

// CheckpointerOptions configure the background checkpointer.
type CheckpointerOptions struct {
	// Every is the checkpoint period (default 30s).
	Every time.Duration
}

func (o CheckpointerOptions) every() time.Duration {
	if o.Every <= 0 {
		return 30 * time.Second
	}
	return o.Every
}

// StartCheckpointer launches the checkpointer: a goroutine that checkpoints
// every period, and sooner when the journal outgrows checkpointJournalBytes,
// bounding how much journal a crash leaves to replay by time and by bytes. The
// returned stop function cancels it and blocks until it has fully exited —
// the same deterministic-shutdown discipline as StartAnalyzer, verified by
// leakcheck. Errors are reported through onError (nil = ignored); a failed
// checkpoint is retried next tick.
func (db *DB) StartCheckpointer(ctx context.Context, o CheckpointerOptions, onError func(error)) (stop func(), err error) {
	db.mu.Lock()
	if !db.durable {
		db.mu.Unlock()
		return nil, fmt.Errorf("vdb: durability not enabled")
	}
	if db.checkpointerOn {
		db.mu.Unlock()
		return nil, fmt.Errorf("vdb: checkpointer already running")
	}
	db.checkpointerOn = true
	db.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer func() {
			db.mu.Lock()
			db.checkpointerOn = false
			db.mu.Unlock()
			close(done)
		}()
		ticker := time.NewTicker(o.every())
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			case <-db.ckptKick:
			}
			if err := db.Checkpoint(); err != nil && onError != nil {
				onError(err)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}, nil
}

// CloseDurability takes a final checkpoint (the graceful-shutdown barrier:
// after it, restart replays nothing) and closes the journal. The DB drops
// back to non-durable mode: a further Append commits its batch to the store
// (data fsync, then manifest), but no journal or checkpoint records its
// metadata. A later EnableDurability on the same directory therefore
// restores the checkpoint's rows and truncates the store back to them:
// those rows are lost.
func (db *DB) CloseDurability() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.durable {
		return nil
	}
	ckErr := db.checkpointLocked()
	closeErr := db.wal.Close()
	db.durable = false
	db.wal = nil
	if ckErr != nil {
		return ckErr
	}
	return closeErr
}

// DurabilityStats snapshots the durability layer.
func (db *DB) DurabilityStats() DurabilityStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := DurabilityStats{
		Enabled:           db.durable,
		WALReplayed:       db.durStats.walReplayed,
		WALTruncatedBytes: db.durStats.walTruncatedBytes,
		Checkpoints:       db.durStats.checkpoints,
		RecoveryMS:        db.durStats.recoveryMS,
	}
	if !db.durStats.lastCheckpoint.IsZero() {
		st.CheckpointAgeS = time.Since(db.durStats.lastCheckpoint).Seconds()
	}
	if db.durable {
		ws := db.wal.Stats()
		st.WALSegments = ws.Segments
		st.WALBytes = ws.Bytes
		st.WALRecords = ws.Records
	}
	return st
}

// journalMergesLocked lazily journals materialized-column deltas (query and
// analyzer merges). Best-effort by design: the records are buffered, not
// fsynced, and a failed journal only costs recomputation after a crash —
// never query correctness — so errors do not propagate to the query path
// (the WAL latches fail-stop for the paths that do matter). Caller holds
// db.mu.
func (db *DB) journalMergesLocked(deltas []mergeDelta) {
	if !db.durable {
		return
	}
	for _, d := range deltas {
		if len(d.rows) == 0 {
			continue
		}
		rec := encodeMergeRec(d.key, d.rows, d.labels)
		if _, err := db.wal.Append(recMerge, rec); err == nil {
			db.noteJournaledLocked(len(rec))
		}
	}
}

// journalAppendLocked appends one batch's recAppend record. Caller holds
// db.mu.
func (db *DB) journalAppendLocked(base uint64, metas []Metadata, recs []img.Record, invalidate bool) error {
	parts, n, err := appendRecParts(base, metas, recs, invalidate)
	if err != nil {
		return err
	}
	if _, err := db.wal.AppendParts(recAppend, parts...); err != nil {
		return err
	}
	db.noteJournaledLocked(n)
	return nil
}

// appendRecParts lays out a recAppend payload (see decodeAppendRec) as the
// parts whose concatenation it is, n bytes in all. The record is gathered,
// not built: the small head, then each row's header and the samples
// themselves, still where the caller holds them — so the journal copies the
// pixels once, into its frame.
func appendRecParts(base uint64, metas []Metadata, recs []img.Record, invalidate bool) (parts [][]byte, n int, err error) {
	head := encodeAppendRec(base, metas, invalidate)
	if len(recs) == 0 {
		return [][]byte{head}, len(head), nil
	}
	size := recs[0].StoredBytes()
	head = binary.LittleEndian.AppendUint32(head, uint32(size))
	parts = make([][]byte, 1, 1+2*len(recs))
	parts[0] = head
	hdrs := make([]byte, 0, len(recs)*(size-len(recs[0].Pix)))
	for _, rec := range recs {
		if rec.StoredBytes() != size {
			return nil, 0, fmt.Errorf("vdb: batch mixes %d- and %d-byte records", size, rec.StoredBytes())
		}
		at := len(hdrs)
		hdrs = rec.AppendHeader(hdrs)
		parts = append(parts, hdrs[at:], rec.Pix)
	}
	return parts, len(head) + len(recs)*size, nil
}

// mergeDelta is one column's newly adopted labels from a merge — the journal
// unit for materialized state.
type mergeDelta struct {
	key    matstore.Key
	rows   []int
	labels []bool
}

// --- record codecs ---

func encodeAppendRec(base uint64, metas []Metadata, invalidate bool) []byte {
	var buf bytes.Buffer
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	buf.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(metas)))
	buf.Write(b[:])
	if invalidate {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	for _, m := range metas {
		binary.LittleEndian.PutUint64(b[:], uint64(m.ID))
		buf.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(m.TS))
		buf.Write(b[:])
		putString(&buf, m.Location)
		putString(&buf, m.Camera)
	}
	return buf.Bytes()
}

// appendRowMin is the least a row costs in a recAppend record: id, ts and
// two empty strings. It bounds the row count a record's length can back, as
// minRecordBytes — the smallest stored image there is — bounds its records.
const appendRowMin = 8 + 8 + 4 + 4

var minRecordBytes = uint64(img.EncodedSize(1, 1, img.Gray))

// decodeAppendRec parses a recAppend payload: encodeAppendRec's head, then —
// unless the record carries no pixels, as the checkpoint's metadata blob and
// journals older than the pixel-carrying format do not — a u32 record size and
// exactly one stored record of that size per row. The returned records alias
// data. Nothing is allocated from a count the payload's own length does not
// cover.
func decodeAppendRec(data []byte) (base uint64, metas []Metadata, recs []img.Record, invalidate bool, err error) {
	fail := func(err error) (uint64, []Metadata, []img.Record, bool, error) {
		return 0, nil, nil, false, err
	}
	r := bytes.NewReader(data)
	var b [8]byte
	if _, err = io.ReadFull(r, b[:]); err != nil {
		return fail(fmt.Errorf("append record: %w", err))
	}
	base = binary.LittleEndian.Uint64(b[:])
	if _, err = io.ReadFull(r, b[:]); err != nil {
		return fail(fmt.Errorf("append record: %w", err))
	}
	count := binary.LittleEndian.Uint64(b[:])
	flag, err := r.ReadByte()
	if err != nil {
		return fail(fmt.Errorf("append record: %w", err))
	}
	if flag > 1 {
		return fail(fmt.Errorf("append record: corrupt flag %d", flag))
	}
	invalidate = flag != 0
	if count > uint64(r.Len())/appendRowMin {
		return fail(fmt.Errorf("append record: corrupt row count %d", count))
	}
	metas = make([]Metadata, 0, count)
	for i := uint64(0); i < count; i++ {
		var m Metadata
		if _, err = io.ReadFull(r, b[:]); err != nil {
			return fail(fmt.Errorf("append record row %d: %w", i, err))
		}
		m.ID = int64(binary.LittleEndian.Uint64(b[:]))
		if _, err = io.ReadFull(r, b[:]); err != nil {
			return fail(fmt.Errorf("append record row %d: %w", i, err))
		}
		m.TS = int64(binary.LittleEndian.Uint64(b[:]))
		if m.Location, err = getString(r); err != nil {
			return fail(fmt.Errorf("append record row %d: %w", i, err))
		}
		if m.Camera, err = getString(r); err != nil {
			return fail(fmt.Errorf("append record row %d: %w", i, err))
		}
		metas = append(metas, m)
	}
	if r.Len() == 0 {
		return base, metas, nil, invalidate, nil
	}
	rest := data[len(data)-r.Len():]
	if len(rest) < 4 || count == 0 {
		return fail(fmt.Errorf("append record: %d trailing bytes", len(rest)))
	}
	size := uint64(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if size < minRecordBytes || uint64(len(rest)) != count*size {
		return fail(fmt.Errorf("append record: %d rows of %d-byte records, but %d bytes follow", count, size, len(rest)))
	}
	recs = make([]img.Record, count)
	for i := range recs {
		if recs[i], err = img.ParseRecord(rest[uint64(i)*size:][:size]); err != nil {
			return fail(fmt.Errorf("append record row %d: %w", i, err))
		}
	}
	return base, metas, recs, invalidate, nil
}

func encodeMergeRec(key matstore.Key, rows []int, labels []bool) []byte {
	var buf bytes.Buffer
	putString(&buf, key.Category)
	putString(&buf, key.Cascade)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(rows)))
	buf.Write(b[:])
	for i, row := range rows {
		binary.LittleEndian.PutUint32(b[:4], uint32(row))
		buf.Write(b[:4])
		if labels[i] {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

// mergeRowBytes is what a row costs in a recMerge record: a u32 row index and
// a label byte.
const mergeRowBytes = 4 + 1

// decodeMergeRec parses a recMerge payload: the column key, a u64 row count,
// then per row its index and a label byte that is exactly 0 or 1. Nothing is
// allocated from a count the payload's own length does not cover.
func decodeMergeRec(data []byte) (key matstore.Key, rows []int, labels []bool, err error) {
	r := bytes.NewReader(data)
	if key.Category, err = getString(r); err != nil {
		return key, nil, nil, fmt.Errorf("merge record: %w", err)
	}
	if key.Cascade, err = getString(r); err != nil {
		return key, nil, nil, fmt.Errorf("merge record: %w", err)
	}
	var b [8]byte
	if _, err = io.ReadFull(r, b[:]); err != nil {
		return key, nil, nil, fmt.Errorf("merge record: %w", err)
	}
	count := binary.LittleEndian.Uint64(b[:])
	if count > uint64(r.Len())/mergeRowBytes {
		return key, nil, nil, fmt.Errorf("merge record: corrupt row count %d", count)
	}
	rows = make([]int, 0, count)
	labels = make([]bool, 0, count)
	for i := uint64(0); i < count; i++ {
		if _, err = io.ReadFull(r, b[:4]); err != nil {
			return key, nil, nil, fmt.Errorf("merge record row %d: %w", i, err)
		}
		rows = append(rows, int(binary.LittleEndian.Uint32(b[:4])))
		flag, ferr := r.ReadByte()
		if ferr != nil {
			return key, nil, nil, fmt.Errorf("merge record row %d: %w", i, ferr)
		}
		if flag > 1 {
			return key, nil, nil, fmt.Errorf("merge record row %d: corrupt label %d", i, flag)
		}
		labels = append(labels, flag == 1)
	}
	if r.Len() != 0 {
		return key, nil, nil, fmt.Errorf("merge record: %d trailing bytes", r.Len())
	}
	return key, rows, labels, nil
}

func putString(buf *bytes.Buffer, s string) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
	buf.Write(b[:])
	buf.WriteString(s)
}

func getString(r *bytes.Reader) (string, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(b[:])
	if n > 1<<20 || int(n) > r.Len() {
		return "", fmt.Errorf("corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// --- checkpoint file ---

// checkpoint is the in-memory form of one checkpoint file.
type checkpoint struct {
	walSeq uint64
	meta   []Metadata
	state  ckptState
	cols   matstore.Columns
	// floatLabels marks a TAHCKP2 file (ckptMagicFloat): its columns are
	// decoded and verified like any other, and recovery drops them.
	floatLabels bool
}

// ckptState is the checkpoint's JSON section: the workload state that steers
// the analyzer and the planner. It is small, and JSON round-trips its floats
// exactly.
type ckptState struct {
	Usage   matstore.UsageState    `json:"usage"`
	Catalog []planner.CatalogEntry `json:"catalog"`
}

// ckptMagic opens a checkpoint file. Frames (wal.WriteFrame) follow it, and
// nothing follows the last:
//
//	header  walSeq u64, rows u64, columns u64
//	meta    the rows' metadata, as a record-less recAppend payload
//	state   ckptState as JSON
//	column  one per materialized column, in key order: category and cascade
//	        (putString each), then the matstore column encoding
const ckptMagic = "TAHCKP3\n"

// ckptMagicFloat opens a checkpoint written while stored representations
// were derived by the float32 resample: the same layout, but labels the
// integer derivation may flip. Its metadata, usage table and catalog are
// restored; its columns are not (see recMergeFloat).
const ckptMagicFloat = "TAHCKP2\n"

// writeCheckpoint persists ck atomically (wal.WriteFile).
func writeCheckpoint(path string, ck *checkpoint) error {
	state, err := json.Marshal(ck.state)
	if err != nil {
		return fmt.Errorf("vdb: checkpoint: %w", err)
	}
	hdr := binary.LittleEndian.AppendUint64(nil, ck.walSeq)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(ck.meta)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(ck.cols)))
	frames := [][]byte{hdr, encodeAppendRec(0, ck.meta, false), state}
	keys := slices.SortedFunc(maps.Keys(ck.cols), func(a, b matstore.Key) int {
		return cmp.Or(strings.Compare(a.Category, b.Category), strings.Compare(a.Cascade, b.Cascade))
	})
	for _, k := range keys {
		var key bytes.Buffer
		putString(&key, k.Category)
		putString(&key, k.Cascade)
		frames = append(frames, ck.cols[k].AppendEncoded(key.Bytes()))
	}
	err = wal.WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, ckptMagic); err != nil {
			return err
		}
		for _, p := range frames {
			if err := wal.WriteFrame(w, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("vdb: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads and fully verifies a checkpoint file. A missing file
// returns an os.IsNotExist error; any damage is a hard error (the atomic
// write protocol means a torn checkpoint should be impossible, so damage
// means the environment lost acknowledged state).
func loadCheckpoint(path string) (*checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("vdb: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint parses and verifies a whole checkpoint file: every
// section, columns included, so recovery applies it only once nothing in it
// can fail. Nothing is allocated from a length or count the bytes themselves
// do not back.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	rest, ok := bytes.CutPrefix(data, []byte(ckptMagic))
	floatLabels := false
	if !ok {
		rest, floatLabels = bytes.CutPrefix(data, []byte(ckptMagicFloat))
	}
	if !ok && !floatLabels {
		return nil, errors.New("not a TAHCKP3 or TAHCKP2 checkpoint")
	}
	frame := func(what string) (payload []byte, err error) {
		if payload, rest, err = wal.SplitFrame(rest); err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		return payload, nil
	}
	hdr, err := frame("header")
	if err != nil {
		return nil, err
	}
	if len(hdr) != 24 {
		return nil, fmt.Errorf("header is %d bytes", len(hdr))
	}
	ck := &checkpoint{walSeq: binary.LittleEndian.Uint64(hdr), cols: matstore.Columns{}, floatLabels: floatLabels}
	rows, ncols := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])

	metaBlob, err := frame("meta")
	if err != nil {
		return nil, err
	}
	_, metas, recs, _, err := decodeAppendRec(metaBlob)
	if err != nil || len(recs) > 0 {
		return nil, fmt.Errorf("meta: %w", cmp.Or(err, errors.New("carries image records")))
	}
	if uint64(len(metas)) != rows {
		return nil, fmt.Errorf("meta has %d rows, header says %d", len(metas), rows)
	}
	ck.meta = metas

	state, err := frame("state")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(state, &ck.state); err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}

	for i := uint64(0); i < ncols; i++ {
		p, err := frame("column")
		if err != nil {
			return nil, err
		}
		r := bytes.NewReader(p)
		var k matstore.Key
		if k.Category, err = getString(r); err == nil {
			k.Cascade, err = getString(r)
		}
		if err != nil {
			return nil, fmt.Errorf("column %d key: %w", i, err)
		}
		col, err := matstore.DecodeColumn(p[len(p)-r.Len():])
		if err != nil {
			return nil, fmt.Errorf("column %v: %w", k, err)
		}
		if col.Len() > len(metas) {
			return nil, fmt.Errorf("column %v spans %d rows of %d", k, col.Len(), len(metas))
		}
		ck.cols[k] = col
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes after the last column", len(rest))
	}
	return ck, nil
}

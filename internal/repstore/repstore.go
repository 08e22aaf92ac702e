// Package repstore is the physical representation store: the on-disk
// substrate behind the ARCHIVE and ONGOING deployment scenarios. A store
// holds the full-size source images plus any number of pre-materialized
// representations (one fixed-record-size data file per transform), so that a
// query can load exactly the physical representation its chosen cascade
// wants, without touching the full-size source.
//
// Layout of a store directory:
//
//	manifest.json      — geometry, transform list, record counts
//	source.dat         — fixed-size TIMG records of full-size images
//	rep-<id>.dat       — fixed-size TIMG records per transform
//
// Fixed record sizes make random access an offset multiplication and make
// truncation detectable on open (file size must be count × record size).
//
// A representation is its stored bytes, derived from the row's stored source
// record (xform.Transform.AppendRecord), whichever way the row came in:
// IngestAll quantizes each image into its source record and derives from
// that, exactly as AppendRecords and WriteRecords derive from the records
// they are handed. A bulk batch is staged on up to GOMAXPROCS workers; the
// bytes do not depend on how many.
//
// Who vouches for a row. A row exists once something durable says so. Stand-
// alone — the CLI's ingest, a server without a journal — that is the manifest:
// IngestAll and AppendRecords fsync the data files and then replace
// the manifest before they return, and Open drops whatever lies past the
// manifest's count. Under vdb's durability the journal vouches first: a batch
// is written here with WriteRecords (no fsync, no manifest), acknowledged once
// the journal holding its records is fsynced, and only at the next checkpoint
// does Sync move the manifest past it. Open's rule is the same either way —
// bytes past the manifest were never vouched for by this store — and recovery
// rewrites from the journal the rows it cut.
package repstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/par"
	"tahoma/internal/wal"
	"tahoma/internal/xform"
)

// ErrCorrupt is returned (wrapped) when a store fails validation.
var ErrCorrupt = errors.New("repstore: corrupt store")

// ErrGeometry is returned (wrapped) when an ingested image is not the store's
// base geometry and mode: the caller's error, found before any row counts.
var ErrGeometry = errors.New("repstore: image geometry does not match the store")

// Manifest describes a store directory.
type Manifest struct {
	Version    int      `json:"version"`
	BaseW      int      `json:"base_w"`
	BaseH      int      `json:"base_h"`
	Transforms []string `json:"transforms"` // transform IDs with materialized reps
	Count      int      `json:"count"`      // ingested images
}

const manifestName = "manifest.json"

// manifestVersion is the store format Create writes. Version 2 stores hold
// representations derived in exact integer arithmetic
// (xform.Transform.AppendRecord); version 1 stores held the float32
// resample's bytes, which differ in the last bit of some samples. Open
// accepts a version-1 store only when it holds no representation.
const manifestVersion = 2

// Store is an open representation store, safe for concurrent use: records
// are read with ReadAt and the record count is guarded, so readers may
// overlap an in-flight ingest — they simply do not see rows appended after
// they checked Count.
type Store struct {
	dir    string
	xforms []xform.Transform
	source *os.File
	reps   map[xform.Transform]*os.File

	// mu guards manifest (Count grows on ingest) and serializes writers. Data
	// files are append-only with fixed record sizes: a record below Count is
	// complete, so ReadAt needs no lock of its own.
	mu       sync.RWMutex
	manifest Manifest
	// vouched is the count in the manifest file on disk — the rows a stand-
	// alone Open keeps. It trails manifest.Count between a WriteRecords and
	// the next Sync.
	vouched int
	// writes counts completed write batches; dataSynced is its value when the
	// last data fsync began, so a sync with nothing new to cover is skipped.
	writes, dataSynced atomic.Int64
	// stage holds each staging worker's buffers, reused across batches
	// (guarded by mu, like every write).
	stage []staged
}

// Create initializes a new store in dir (which must be empty or absent) that
// will materialize the given transforms for every ingested image.
func Create(dir string, baseW, baseH int, transforms []xform.Transform) (*Store, error) {
	if baseW <= 0 || baseH <= 0 || baseW > img.MaxSide || baseH > img.MaxSide {
		return nil, fmt.Errorf("repstore: invalid base geometry %dx%d", baseW, baseH)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repstore: creating %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("repstore: %s already contains a store", dir)
	}
	ids := make([]string, len(transforms))
	for i, t := range transforms {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if t.Size > img.MaxSide {
			return nil, fmt.Errorf("repstore: transform %s is too large for a TIMG record", t.ID())
		}
		ids[i] = t.ID()
	}
	s := &Store{
		dir: dir,
		manifest: Manifest{
			Version:    manifestVersion,
			BaseW:      baseW,
			BaseH:      baseH,
			Transforms: ids,
		},
		xforms: append([]xform.Transform(nil), transforms...),
		reps:   make(map[xform.Transform]*os.File),
	}
	var err error
	s.source, err = os.OpenFile(filepath.Join(dir, "source.dat"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repstore: opening source.dat: %w", err)
	}
	for _, t := range transforms {
		f, err := os.OpenFile(filepath.Join(dir, repFileName(t.ID())), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("repstore: opening rep file for %s: %w", t.ID(), err)
		}
		s.reps[t] = f
	}
	if err := s.writeManifest(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Open opens an existing store and validates record counts against file
// sizes. A data file *shorter* than the manifest implies is corruption (the
// manifest is only made durable after the data it describes, so records it
// vouches for cannot be missing). A data file *longer* than the manifest
// implies is a tail the manifest never vouched for — a crash between writing
// records and committing the manifest, or rows written under a journal since
// the last checkpoint — and is cut back to the manifest's count. Stand-alone
// those rows were never acknowledged; under vdb the journal that acknowledged
// them still holds their records, and recovery writes them back.
//
// A version-1 store that holds representations is refused with ErrCorrupt:
// they came from the float32 resample, not the integer derivation every
// slot the engine derives now matches. A source-only version-1 store opens
// as it is.
//
// Files are opened read-write so an opened store can keep ingesting (the
// serving tier's ONGOING scenario).
func Open(dir string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("repstore: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: bad manifest: %v", ErrCorrupt, err)
	}
	switch {
	case m.Version == 1 && len(m.Transforms) > 0 && m.Count > 0:
		return nil, fmt.Errorf("%w: version 1 store holds representations from the float resample; rebuild it with `tahoma corpus`", ErrCorrupt)
	case m.Version == 1:
		// Source records alone are not derived: the store is current, and
		// its next manifest commit says so.
		m.Version = manifestVersion
	case m.Version != manifestVersion:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, m.Version)
	}
	s := &Store{dir: dir, manifest: m, vouched: m.Count, reps: make(map[xform.Transform]*os.File)}
	for _, id := range m.Transforms {
		t, err := xform.Parse(id)
		if err != nil {
			return nil, fmt.Errorf("%w: manifest transform %q: %v", ErrCorrupt, id, err)
		}
		s.xforms = append(s.xforms, t)
	}
	s.source, err = os.OpenFile(filepath.Join(dir, "source.dat"), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repstore: opening source.dat: %w", err)
	}
	if err := s.checkSize(s.source, s.sourceRecordSize(), "source.dat"); err != nil {
		s.Close()
		return nil, err
	}
	for _, t := range s.xforms {
		f, err := os.OpenFile(filepath.Join(dir, repFileName(t.ID())), os.O_RDWR, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("repstore: opening rep file for %s: %w", t.ID(), err)
		}
		if err := s.checkSize(f, t.StoredBytes(), repFileName(t.ID())); err != nil {
			f.Close()
			s.Close()
			return nil, err
		}
		s.reps[t] = f
	}
	return s, nil
}

func (s *Store) checkSize(f *os.File, record int, name string) error {
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("repstore: stat %s: %w", name, err)
	}
	want := int64(record) * int64(s.manifest.Count)
	switch {
	case info.Size() < want:
		return fmt.Errorf("%w: %s is %d bytes, manifest implies %d (count=%d, record=%d)",
			ErrCorrupt, name, info.Size(), want, s.manifest.Count, record)
	case info.Size() > want:
		// Torn tail: records appended but never committed via the manifest.
		if err := f.Truncate(want); err != nil {
			return fmt.Errorf("repstore: truncating torn tail of %s: %w", name, err)
		}
	}
	return nil
}

func repFileName(id string) string {
	return "rep-" + strings.ReplaceAll(id, "/", "_") + ".dat"
}

func (s *Store) sourceRecordSize() int {
	return img.EncodedSize(s.manifest.BaseW, s.manifest.BaseH, img.RGB)
}

// writeManifest atomically replaces the manifest (wal.WriteFile).
func (s *Store) writeManifest() error {
	raw, err := json.MarshalIndent(s.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("repstore: encoding manifest: %w", err)
	}
	err = wal.WriteFile(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	if err != nil {
		return fmt.Errorf("repstore: writing manifest: %w", err)
	}
	s.vouched = s.manifest.Count
	return nil
}

// Count returns the number of ingested images.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.manifest.Count
}

// Transforms returns the transforms materialized by this store.
func (s *Store) Transforms() []xform.Transform {
	return append([]xform.Transform(nil), s.xforms...)
}

// BaseSize returns the full-resolution geometry.
func (s *Store) BaseSize() (w, h int) { return s.manifest.BaseW, s.manifest.BaseH }

// IngestAll appends a batch of full-size images, materializing every
// configured representation (the ONGOING pipeline: transform on ingest,
// load-only at query time), and makes it durable on the store's own terms:
// the rows are written, the data files fsynced, and only then is the manifest
// replaced (one commit per batch rather than per image). When it returns nil
// the manifest vouches for the batch; on failure the count is unchanged and a
// retry overwrites whatever bytes the attempt left.
//
// Each image is quantized once, into its source record, and every
// representation is derived from that record exactly as AppendRecords derives
// it: a row has the same bytes whichever way it came in.
func (s *Store) IngestAll(ims []*img.Image) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, im := range ims {
		if err := s.checkGeometry(im.W, im.H, im.Mode); err != nil {
			return err
		}
	}
	start := s.manifest.Count
	err := s.writeRows(start, len(ims), func(dst []byte, j int) ([]byte, error) {
		dst, err := img.AppendRecord(dst, ims[j])
		if err != nil {
			return dst, fmt.Errorf("repstore: encoding record for source.dat: %w", err)
		}
		return dst, nil
	})
	if err != nil {
		return err
	}
	return s.commitLocked(start, start+len(ims))
}

// AppendRecords is IngestAll for images already held as stored records: the
// bytes go to source.dat as received, and every representation is derived
// from that record (xform.Transform.AppendRecord) — from what is stored,
// which is all a replay would have, and the same bytes IngestAll writes for
// the same frames.
func (s *Store) AppendRecords(recs []img.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.manifest.Count
	if err := s.writeRecordsLocked(start, recs); err != nil {
		return err
	}
	return s.commitLocked(start, start+len(recs))
}

// WriteRecords makes recs rows [base, base+len(recs)) without making them
// durable: no fsync, no manifest. It is the journaled append — the caller
// holds the same records in a journal it fsyncs before acknowledging them, and
// calls Sync when it wants the store to vouch for them itself (a checkpoint).
// base may lie below Count — recovery replaying a batch whose tail Open cut —
// and the write is idempotent: the same records at the same base produce the
// same bytes. Rows become readable when it returns.
func (s *Store) WriteRecords(base int, recs []img.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if base < 0 || base > s.manifest.Count {
		return fmt.Errorf("repstore: WriteRecords at row %d would leave a gap after %d rows", base, s.manifest.Count)
	}
	if err := s.writeRecordsLocked(base, recs); err != nil {
		return err
	}
	s.manifest.Count = max(s.manifest.Count, base+len(recs))
	return nil
}

func (s *Store) writeRecordsLocked(base int, recs []img.Record) error {
	for _, rec := range recs {
		if err := s.checkGeometry(rec.W, rec.H, rec.Mode); err != nil {
			return err
		}
	}
	return s.writeRows(base, len(recs), func(dst []byte, j int) ([]byte, error) {
		return recs[j].AppendTo(dst), nil
	})
}

func (s *Store) checkGeometry(w, h int, mode img.ColorMode) error {
	if w != s.manifest.BaseW || h != s.manifest.BaseH || mode != img.RGB {
		return fmt.Errorf("%w: ingest image %dx%d/%v, store wants %dx%d/rgb",
			ErrGeometry, w, h, mode, s.manifest.BaseW, s.manifest.BaseH)
	}
	return nil
}

// commitLocked is the stand-alone commit of rows [start, end): data fsync,
// then the manifest. On failure the count is back at start.
func (s *Store) commitLocked(start, end int) error {
	s.manifest.Count = end
	err := s.syncData()
	if err == nil {
		err = s.writeManifest()
	}
	if err != nil {
		s.manifest.Count = start
	}
	return err
}

// staged is one staging worker's working set: a contiguous run of stored
// records per data file.
type staged struct {
	src  []byte
	reps [][]byte // parallel to Store.xforms
}

// writeChunk bounds how many source bytes are staged before they are written:
// enough that an ingest batch is one write per file and a bulk load a few
// thousand, small enough to cost nothing to keep per worker.
const writeChunk = 64 << 10

// writeRows is the store's one writer. It writes rows [base, base+k), whose
// geometry the caller has checked, a chunk of at most writeChunk source bytes
// at a time: appendSrc appends row j's stored source record, and every
// representation is derived from those stored bytes (see stageChunk). Each
// data file's run is written with a single offset-addressed WriteAt per
// chunk. Offset addressing means a store opened with Open keeps appending, a
// retried or replayed batch overwrites its own bytes, chunks may be written in
// any order, and nothing here depends on a file position.
//
// A batch of one chunk — an /ingest batch, a journal replay — is staged
// inline. A longer one is spread over up to GOMAXPROCS workers, worker w
// staging into s.stage[w], and the first error stops the rest; the bytes are
// the same whichever worker wrote a chunk. writeRows neither syncs nor moves
// Count: whether the rows are visible, and who vouches for them, is the
// caller's business.
func (s *Store) writeRows(base, k int, appendSrc func(dst []byte, j int) ([]byte, error)) error {
	perChunk := (writeChunk + s.sourceRecordSize() - 1) / s.sourceRecordSize()
	chunks := (k + perChunk - 1) / perChunk
	workers := par.Workers(0, chunks)
	for len(s.stage) < workers {
		s.stage = append(s.stage, s.newStaged(perChunk))
	}
	return par.Do(chunks, workers, func(w, c int) error {
		lo := c * perChunk
		return s.stageChunk(&s.stage[w], base, lo, min(lo+perChunk, k), appendSrc)
	})
}

// newStaged returns a staging slot sized for a chunk of rows, so a slot
// allocates once, when it is made, whichever batch first hands it a chunk.
func (s *Store) newStaged(rows int) staged {
	b := staged{src: make([]byte, 0, rows*s.sourceRecordSize()), reps: make([][]byte, len(s.xforms))}
	for i, t := range s.xforms {
		b.reps[i] = make([]byte, 0, rows*t.StoredBytes())
	}
	return b
}

// stageChunk stages rows [lo, hi) of a batch starting at row base into b and
// writes them. Each row's representations are appended from its stored source
// record in one pass over those bytes, so a representation is Q(T(stored
// record)) — the one form AppendRecords, WriteRecords and IngestAll share.
func (s *Store) stageChunk(b *staged, base, lo, hi int, appendSrc func(dst []byte, j int) ([]byte, error)) error {
	b.src = b.src[:0]
	for i := range b.reps {
		b.reps[i] = b.reps[i][:0]
	}
	for j := lo; j < hi; j++ {
		at := len(b.src)
		var err error
		if b.src, err = appendSrc(b.src, j); err != nil {
			return err
		}
		rec, err := img.ParseRecord(b.src[at:])
		if err != nil {
			return fmt.Errorf("repstore: row %d: %w", base+j, err)
		}
		for i, t := range s.xforms {
			b.reps[i] = t.AppendRecord(b.reps[i], rec)
		}
	}
	return s.writeStaged(b, base+lo)
}

// writeStaged writes b's staged run of each data file at row first.
func (s *Store) writeStaged(b *staged, first int) error {
	srcOff := int64(first) * int64(s.sourceRecordSize())
	// Fault points: a failed or short write leaves torn bytes past the count,
	// which nothing vouches for; the batch fails and a retry overwrites them.
	if err := faults.Fire(faults.FSWriteError); err != nil {
		return fmt.Errorf("repstore: appending to source.dat: %w", err)
	}
	if faults.Firing(faults.FSShortWrite) {
		_, _ = s.source.WriteAt(b.src[:len(b.src)/2], srcOff)
		return errors.New("repstore: appending to source.dat: short write (injected)")
	}
	if _, err := s.source.WriteAt(b.src, srcOff); err != nil {
		return fmt.Errorf("repstore: appending to source.dat: %w", err)
	}
	for i, t := range s.xforms {
		if _, err := s.reps[t].WriteAt(b.reps[i], int64(first)*int64(t.StoredBytes())); err != nil {
			return fmt.Errorf("repstore: appending to %s: %w", repFileName(t.ID()), err)
		}
	}
	s.writes.Add(1)
	return nil
}

// syncData fsyncs every data file — the first half of the store's durability
// ordering: data reaches disk before the manifest that describes it. It is
// skipped when no write has completed since the last one began. It takes no
// lock: fsync may run beside a writer, and what that writer adds is simply
// left for the next sync.
func (s *Store) syncData() error {
	w := s.writes.Load()
	if w == s.dataSynced.Load() {
		return nil
	}
	if err := faults.Fire(faults.FSSyncError); err != nil {
		return fmt.Errorf("repstore: syncing data: %w", err)
	}
	if err := s.source.Sync(); err != nil {
		return fmt.Errorf("repstore: syncing source.dat: %w", err)
	}
	for t, f := range s.reps {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("repstore: syncing %s: %w", repFileName(t.ID()), err)
		}
	}
	s.dataSynced.Store(w)
	return nil
}

// SyncData fsyncs the data files without blocking writers or readers and
// without touching the manifest. It is the bulk half of Sync for a caller
// that must not stall ingest: sync here first, then take whatever lock
// excludes writers and call Sync, which has only the stragglers left to
// cover.
func (s *Store) SyncData() error { return s.syncData() }

// Sync makes the store vouch for every row it holds: data fsync, then the
// manifest, each only if something changed since the last. IngestAll and
// AppendRecords commit on their own; Sync is the commit of rows written with
// WriteRecords.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncData(); err != nil {
		return err
	}
	if s.vouched == s.manifest.Count {
		return nil
	}
	return s.writeManifest()
}

// TruncateTo discards every record with index >= n, reconciling the store
// with recovered state (rows whose journal commit never reached disk must
// not survive in the store, or a later append would collide with them).
func (s *Store) TruncateTo(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 || n > s.manifest.Count {
		return fmt.Errorf("repstore: TruncateTo(%d) outside [0,%d]", n, s.manifest.Count)
	}
	if n == s.manifest.Count {
		return nil
	}
	if err := s.source.Truncate(int64(n) * int64(s.sourceRecordSize())); err != nil {
		return fmt.Errorf("repstore: truncating source.dat: %w", err)
	}
	for _, t := range s.xforms {
		if err := s.reps[t].Truncate(int64(n) * int64(t.StoredBytes())); err != nil {
			return fmt.Errorf("repstore: truncating %s: %w", repFileName(t.ID()), err)
		}
	}
	s.manifest.Count = n
	s.writes.Add(1) // a truncation is a write the next data fsync must cover
	if err := s.syncData(); err != nil {
		return err
	}
	return s.writeManifest()
}

// SourceRecord reads full-size image i as stored: one ReadAt of the record's
// bytes, validated but not expanded. It reads into *scratch, growing it to
// the record size when it is smaller, and the returned view aliases it — a
// caller that keeps the record (the cache) passes a fresh slice.
func (s *Store) SourceRecord(i int, scratch *[]byte) (img.Record, error) {
	return s.readRecord(xform.Transform{}, i, scratch)
}

// RepRecord reads representation i for transform t as stored, the way
// SourceRecord reads a source: one ReadAt into *scratch, validated — and held
// to t's own geometry — but not expanded. The transform must be one the store
// materializes.
func (s *Store) RepRecord(i int, t xform.Transform, scratch *[]byte) (img.Record, error) {
	return s.readRecord(t, i, scratch)
}

// readRecord reads and validates record i of form t — the zero Transform for
// the sources — into *scratch (grown to the record size when smaller) and
// returns a view aliasing it: the record's fault points, then a run read of
// one row, then parse.
func (s *Store) readRecord(t xform.Transform, i int, scratch *[]byte) (img.Record, error) {
	if err := fireRecord(t, i); err != nil {
		return img.Record{}, err
	}
	size := s.recordSize(t)
	if cap(*scratch) < size {
		*scratch = make([]byte, size)
	}
	buf := (*scratch)[:size]
	if err := s.readRun(t, i, buf); err != nil {
		return img.Record{}, err
	}
	return parseRecord(t, i, buf)
}

// fireRecord runs the fault points of one record read of form t, row i. Every
// read path reaches it exactly once per record it returns or fails.
func fireRecord(t xform.Transform, i int) error {
	if t == (xform.Transform{}) {
		// faults.StoreDecode models a corrupt or unreadable source record —
		// the chaos suite's "disk ate a frame" case.
		if err := faults.Fire(faults.StoreDecode); err != nil {
			return fmt.Errorf("repstore: source record %d: %w", i, err)
		}
		return nil
	}
	// faults.StoreRepSlow models a wedged disk (pure delay); StoreRepRead a
	// failed representation read, which the engines degrade around.
	_ = faults.Fire(faults.StoreRepSlow)
	if err := faults.Fire(faults.StoreRepRead); err != nil {
		return fmt.Errorf("repstore: rep %s record %d: %w", t.ID(), i, err)
	}
	return nil
}

// recordSize is the stored size of one record of form t, the source's for
// the zero Transform.
func (s *Store) recordSize(t xform.Transform) int {
	if t == (xform.Transform{}) {
		return s.sourceRecordSize()
	}
	return t.StoredBytes()
}

// readRun reads the records of form t at rows first, first+1, ... — as many
// as buf holds whole — with one ReadAt into buf, and validates none of them
// (parseRecord does, one at a time). The form must be materialized and every
// row in range, or nothing is read.
func (s *Store) readRun(t xform.Transform, first int, buf []byte) error {
	f := s.source
	if t != (xform.Transform{}) {
		var ok bool
		if f, ok = s.reps[t]; !ok {
			return fmt.Errorf("repstore: transform %s not materialized in this store", t.ID())
		}
	}
	size := s.recordSize(t)
	if n, count := len(buf)/size, s.Count(); first < 0 || first > count-n {
		bad := first
		if first >= 0 {
			bad = max(first, count)
		}
		return fmt.Errorf("repstore: index %d out of range [0,%d)", bad, count)
	}
	if _, err := f.ReadAt(buf, int64(first)*int64(size)); err != nil {
		return fmt.Errorf("repstore: reading %s record %d: %w", dataFileName(t), first, err)
	}
	return nil
}

// parseRecord validates raw as record i of form t and returns a view
// aliasing it: a TIMG record, and a representation of t's own geometry.
func parseRecord(t xform.Transform, i int, raw []byte) (img.Record, error) {
	rec, err := img.ParseRecord(raw)
	if err != nil {
		return img.Record{}, fmt.Errorf("%w: %s record %d: %v", ErrCorrupt, dataFileName(t), i, err)
	}
	if t != (xform.Transform{}) && (rec.W != t.Size || rec.H != t.Size || rec.Mode != t.Color) {
		return img.Record{}, fmt.Errorf("%w: %s record %d is %dx%d/%v", ErrCorrupt, repFileName(t.ID()), i, rec.W, rec.H, rec.Mode)
	}
	return rec, nil
}

// dataFileName names t's data file, source.dat for the zero Transform. The
// read path builds it for error text only.
func dataFileName(t xform.Transform) string {
	if t == (xform.Transform{}) {
		return "source.dat"
	}
	return repFileName(t.ID())
}

// Close releases file handles. Safe to call more than once.
func (s *Store) Close() error {
	var first error
	if s.source != nil {
		if err := s.source.Close(); err != nil && first == nil {
			first = err
		}
		s.source = nil
	}
	for t, f := range s.reps {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.reps, t)
	}
	return first
}

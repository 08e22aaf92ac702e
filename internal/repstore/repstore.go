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
package repstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// ErrCorrupt is returned (wrapped) when a store fails validation.
var ErrCorrupt = errors.New("repstore: corrupt store")

// Manifest describes a store directory.
type Manifest struct {
	Version    int      `json:"version"`
	BaseW      int      `json:"base_w"`
	BaseH      int      `json:"base_h"`
	Transforms []string `json:"transforms"` // transform IDs with materialized reps
	Count      int      `json:"count"`      // ingested images
}

const manifestName = "manifest.json"

// Store is an open representation store, safe for concurrent use: records
// are read with ReadAt and the record count is guarded, so readers may
// overlap an in-flight Ingest — they simply do not see rows appended after
// they checked Count.
type Store struct {
	dir    string
	xforms []xform.Transform
	source *os.File
	reps   map[string]*os.File

	// mu guards manifest (Count grows on ingest). Data files are append-
	// only with fixed record sizes: a record below Count is complete, so
	// ReadAt needs no lock of its own.
	mu       sync.RWMutex
	manifest Manifest

	// scratch pools the read buffers (*[]byte) of loads that hand back a
	// decoded image and so have no caller-owned buffer to read into.
	scratch sync.Pool
}

// Create initializes a new store in dir (which must be empty or absent) that
// will materialize the given transforms for every ingested image.
func Create(dir string, baseW, baseH int, transforms []xform.Transform) (*Store, error) {
	if baseW <= 0 || baseH <= 0 {
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
		ids[i] = t.ID()
	}
	s := &Store{
		dir: dir,
		manifest: Manifest{
			Version:    1,
			BaseW:      baseW,
			BaseH:      baseH,
			Transforms: ids,
		},
		xforms: append([]xform.Transform(nil), transforms...),
		reps:   make(map[string]*os.File),
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
		s.reps[t.ID()] = f
	}
	if err := s.writeManifest(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Open opens an existing store and validates record counts against file
// sizes. A data file *shorter* than the manifest implies is corruption (the
// manifest is only made durable after the data it describes, so acknowledged
// records cannot be missing). A data file *longer* than the manifest implies
// is a torn tail — a crash between appending records and committing the
// manifest — and is repaired by truncating back to the manifest's count: the
// extra records were never acknowledged.
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
	if m.Version != 1 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, m.Version)
	}
	s := &Store{dir: dir, manifest: m, reps: make(map[string]*os.File)}
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
		s.reps[t.ID()] = f
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

// writeManifest atomically replaces the manifest: write a temp file, fsync
// it, rename over the old one, fsync the directory. Without the fsyncs a
// crash can surface an empty or garbage manifest — the rename may hit disk
// before the temp file's contents do.
func (s *Store) writeManifest() error {
	if err := faults.Fire(faults.FSWriteError); err != nil {
		return fmt.Errorf("repstore: writing manifest: %w", err)
	}
	raw, err := json.MarshalIndent(s.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("repstore: encoding manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("repstore: writing manifest: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("repstore: writing manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repstore: syncing manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repstore: closing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("repstore: replacing manifest: %w", err)
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("repstore: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("repstore: syncing dir: %w", err)
	}
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

// Ingest appends one full-size image, materializing every configured
// representation (the ONGOING pipeline: transform on ingest, load-only at
// query time). It returns the image's index.
func (s *Store) Ingest(im *img.Image) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if im.W != s.manifest.BaseW || im.H != s.manifest.BaseH || im.Mode != img.RGB {
		return 0, fmt.Errorf("repstore: ingest image %dx%d/%v, store wants %dx%d/rgb",
			im.W, im.H, im.Mode, s.manifest.BaseW, s.manifest.BaseH)
	}
	idx := s.manifest.Count
	if _, err := s.appendRow(nil, im, idx); err != nil {
		return 0, err
	}
	// Durability ordering: data fsync, then manifest. A crash in between
	// leaves a torn data tail beyond the manifest count, which Open repairs.
	if err := s.syncDataLocked(); err != nil {
		return 0, err
	}
	s.manifest.Count++
	if err := s.writeManifest(); err != nil {
		s.manifest.Count--
		return 0, err
	}
	return idx, nil
}

// IngestAll appends a batch of images, deferring the manifest write to the
// end (one fsync-visible update per batch rather than per image).
func (s *Store) IngestAll(ims []*img.Image) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.manifest.Count
	var buf []byte // one encode buffer for every record of the batch
	for k, im := range ims {
		if im.W != s.manifest.BaseW || im.H != s.manifest.BaseH || im.Mode != img.RGB {
			s.manifest.Count = start
			return fmt.Errorf("repstore: ingest image %dx%d/%v, store wants %dx%d/rgb",
				im.W, im.H, im.Mode, s.manifest.BaseW, s.manifest.BaseH)
		}
		var err error
		if buf, err = s.appendRow(buf, im, start+k); err != nil {
			s.manifest.Count = start
			return err
		}
		s.manifest.Count++
	}
	// Durability ordering: data fsync, then manifest (see Ingest).
	if err := s.syncDataLocked(); err != nil {
		s.manifest.Count = start
		return err
	}
	if err := s.writeManifest(); err != nil {
		s.manifest.Count = start
		return err
	}
	return nil
}

// appendRow writes im as source record idx and materializes every configured
// representation beside it. buf is the encode buffer, returned (possibly
// grown) so a batch reuses one.
func (s *Store) appendRow(buf []byte, im *img.Image, idx int) ([]byte, error) {
	buf, err := s.appendRecord(buf, s.source, im, idx, s.sourceRecordSize(), "source.dat")
	if err != nil {
		return buf, err
	}
	for _, t := range s.xforms {
		buf, err = s.appendRecord(buf, s.reps[t.ID()], t.Apply(im), idx, t.StoredBytes(), repFileName(t.ID()))
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// appendRecord encodes image im into buf and writes it as record index idx
// of f. Writes are offset-addressed (not position-dependent) so a store
// opened with Open can keep appending, and a re-crashed append simply
// overwrites its own torn tail.
func (s *Store) appendRecord(buf []byte, f *os.File, im *img.Image, idx, record int, name string) ([]byte, error) {
	buf, err := img.AppendRecord(buf[:0], im)
	if err != nil {
		return buf, fmt.Errorf("repstore: encoding record for %s: %w", name, err)
	}
	if len(buf) != record {
		return buf, fmt.Errorf("repstore: record for %s is %d bytes, want %d", name, len(buf), record)
	}
	if _, err := f.WriteAt(buf, int64(idx)*int64(record)); err != nil {
		return buf, fmt.Errorf("repstore: appending to %s: %w", name, err)
	}
	return buf, nil
}

// syncDataLocked fsyncs every data file — the first half of the durability
// ordering: data reaches disk before the manifest that describes it.
func (s *Store) syncDataLocked() error {
	if err := faults.Fire(faults.FSSyncError); err != nil {
		return fmt.Errorf("repstore: syncing data: %w", err)
	}
	if err := s.source.Sync(); err != nil {
		return fmt.Errorf("repstore: syncing source.dat: %w", err)
	}
	for id, f := range s.reps {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("repstore: syncing %s: %w", repFileName(id), err)
		}
	}
	return nil
}

// Sync makes every ingested record and the manifest durable. Ingest and
// IngestAll already sync internally; Sync is for callers that need an
// explicit barrier (e.g. before journaling a commit that references rows).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncDataLocked(); err != nil {
		return err
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
		if err := s.reps[t.ID()].Truncate(int64(n) * int64(t.StoredBytes())); err != nil {
			return fmt.Errorf("repstore: truncating %s: %w", repFileName(t.ID()), err)
		}
	}
	s.manifest.Count = n
	if err := s.syncDataLocked(); err != nil {
		return err
	}
	return s.writeManifest()
}

// SourceRecord reads full-size image i as stored: one ReadAt of the record's
// bytes, validated but not expanded. It reads into *scratch, growing it to
// the record size when it is smaller, and the returned view aliases it — a
// caller that keeps the record (the cache) passes a fresh slice, one that
// consumes it at once (a scan without a cache) passes the same slice again.
func (s *Store) SourceRecord(i int, scratch *[]byte) (img.Record, error) {
	// faults.StoreDecode models a corrupt or unreadable source record — the
	// chaos suite's "disk ate a frame" case.
	if err := faults.Fire(faults.StoreDecode); err != nil {
		return img.Record{}, fmt.Errorf("repstore: source record %d: %w", i, err)
	}
	return s.readRecord(s.source, i, s.sourceRecordSize(), "source.dat", scratch)
}

// LoadSource reads full-size image i, decoded.
func (s *Store) LoadSource(i int) (*img.Image, error) {
	buf := s.getScratch()
	defer s.scratch.Put(buf)
	rec, err := s.SourceRecord(i, buf)
	if err != nil {
		return nil, err
	}
	return rec.Image(), nil
}

// LoadRep reads representation i for transform t. The transform must be one
// the store materializes.
func (s *Store) LoadRep(i int, t xform.Transform) (*img.Image, error) {
	// faults.StoreRepSlow models a wedged disk (pure delay); StoreRepRead a
	// failed representation read, which the engines degrade around.
	_ = faults.Fire(faults.StoreRepSlow)
	if err := faults.Fire(faults.StoreRepRead); err != nil {
		return nil, fmt.Errorf("repstore: rep %s record %d: %w", t.ID(), i, err)
	}
	f, ok := s.reps[t.ID()]
	if !ok {
		return nil, fmt.Errorf("repstore: transform %s not materialized in this store", t.ID())
	}
	buf := s.getScratch()
	defer s.scratch.Put(buf)
	rec, err := s.readRecord(f, i, t.StoredBytes(), repFileName(t.ID()), buf)
	if err != nil {
		return nil, err
	}
	return rec.Image(), nil
}

func (s *Store) getScratch() *[]byte {
	if buf, ok := s.scratch.Get().(*[]byte); ok {
		return buf
	}
	return new([]byte)
}

// readRecord reads and validates record i of f into *scratch (grown to the
// record size when smaller) and returns a view aliasing it.
func (s *Store) readRecord(f *os.File, i, record int, name string, scratch *[]byte) (img.Record, error) {
	if n := s.Count(); i < 0 || i >= n {
		return img.Record{}, fmt.Errorf("repstore: index %d out of range [0,%d)", i, n)
	}
	if cap(*scratch) < record {
		*scratch = make([]byte, record)
	}
	buf := (*scratch)[:record]
	if _, err := f.ReadAt(buf, int64(i)*int64(record)); err != nil {
		return img.Record{}, fmt.Errorf("repstore: reading %s record %d: %w", name, i, err)
	}
	rec, err := img.ParseRecord(buf)
	if err != nil {
		return img.Record{}, fmt.Errorf("%w: %s record %d: %v", ErrCorrupt, name, i, err)
	}
	return rec, nil
}

// ScanSource streams every full-size image in order.
func (s *Store) ScanSource(fn func(i int, im *img.Image) error) error {
	n := s.Count() // fixed bound: rows ingested mid-scan are not visited
	for i := 0; i < n; i++ {
		im, err := s.LoadSource(i)
		if err != nil {
			return err
		}
		if err := fn(i, im); err != nil {
			return err
		}
	}
	return nil
}

// ScanRep streams every representation of transform t in order.
func (s *Store) ScanRep(t xform.Transform, fn func(i int, im *img.Image) error) error {
	if _, ok := s.reps[t.ID()]; !ok {
		return fmt.Errorf("repstore: transform %s not materialized in this store", t.ID())
	}
	n := s.Count() // fixed bound: rows ingested mid-scan are not visited
	for i := 0; i < n; i++ {
		im, err := s.LoadRep(i, t)
		if err != nil {
			return err
		}
		if err := fn(i, im); err != nil {
			return err
		}
	}
	return nil
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
	for id, f := range s.reps {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.reps, id)
	}
	return first
}

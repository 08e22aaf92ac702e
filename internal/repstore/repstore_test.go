package repstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/xform"
)

func randRGB(rng *rand.Rand, size int) *img.Image {
	im := img.New(size, size, img.RGB)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

var testTransforms = []xform.Transform{
	{Size: 8, Color: img.Gray},
	{Size: 16, Color: img.RGB},
}

// loadSource reads row i's source record and decodes it.
func loadSource(s *Store, i int) (*img.Image, error) {
	var buf []byte
	rec, err := s.SourceRecord(i, &buf)
	if err != nil {
		return nil, err
	}
	return rec.Image(), nil
}

// ingestOne appends im as a batch of one and returns its row.
func ingestOne(s *Store, im *img.Image) (int, error) {
	idx := s.Count()
	return idx, s.IngestAll([]*img.Image{im})
}

func TestCreateIngestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 32, 32, testTransforms)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(1))
	var originals []*img.Image
	for i := 0; i < 5; i++ {
		im := randRGB(rng, 32)
		originals = append(originals, im)
		idx, err := ingestOne(s, im)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("ingest index %d, want %d", idx, i)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}

	// Sources round-trip within quantization error.
	for i, want := range originals {
		got, err := loadSource(s, i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Pix {
			d := got.Pix[j] - want.Pix[j]
			if d < 0 {
				d = -d
			}
			if d > 1.0/255+1e-6 {
				t.Fatalf("source %d pixel %d: %v vs %v", i, j, got.Pix[j], want.Pix[j])
			}
		}
	}

	// Representations are the one derivation of the source's record, byte
	// for byte.
	for _, tr := range testTransforms {
		for i, im := range originals {
			var buf []byte
			rec, err := s.RepRecord(i, tr, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if rec.W != tr.Size || rec.Mode.Channels() != tr.Channels() {
				t.Fatalf("rep geometry %dx%d/%v", rec.W, rec.H, rec.Mode)
			}
			raw, err := img.AppendRecord(nil, im)
			if err != nil {
				t.Fatal(err)
			}
			src, err := img.ParseRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			want, err := img.ParseRecord(tr.AppendRecord(nil, src))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Pix, want.Pix) {
				t.Fatalf("rep %s image %d: stored bytes differ from AppendRecord of the source record", tr.ID(), i)
			}
		}
	}
}

func TestOpenAfterCloseReadsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ims := []*img.Image{randRGB(rng, 16), randRGB(rng, 16)}
	if err := s.IngestAll(ims); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 2 {
		t.Fatalf("reopened count %d", s2.Count())
	}
	if w, h := s2.BaseSize(); w != 16 || h != 16 {
		t.Fatalf("base size %dx%d", w, h)
	}
	if got := s2.Transforms(); len(got) != 1 || got[0] != testTransforms[0] {
		t.Fatalf("transforms %v", got)
	}
	if _, err := loadSource(s2, 1); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	if _, err := s2.RepRecord(0, testTransforms[0], &buf); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, 0, 16, nil); err == nil {
		t.Fatal("invalid geometry must error")
	}
	// Nothing a TIMG header cannot describe: a source side or a rep size
	// past img.MaxSide.
	if _, err := Create(t.TempDir(), img.MaxSide+1, 16, nil); err == nil {
		t.Fatal("a source wider than a TIMG record must error")
	}
	if _, err := Create(t.TempDir(), 16, 16, []xform.Transform{{Size: img.MaxSide + 1, Color: img.Gray}}); err == nil {
		t.Fatal("a representation larger than a TIMG record must error")
	}
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Double-create in same dir.
	if _, err := Create(dir, 16, 16, nil); err == nil {
		t.Fatal("double create must error")
	}
	// Wrong ingest geometry.
	if _, err := ingestOne(s, img.New(8, 8, img.RGB)); !errors.Is(err, ErrGeometry) {
		t.Fatalf("wrong geometry ingest: err = %v, want ErrGeometry", err)
	}
	if _, err := ingestOne(s, img.New(16, 16, img.Gray)); !errors.Is(err, ErrGeometry) {
		t.Fatalf("non-RGB ingest: err = %v, want ErrGeometry", err)
	}
	// Unknown transform.
	var buf []byte
	if _, err := s.RepRecord(0, xform.Transform{Size: 4, Color: img.Red}, &buf); err == nil {
		t.Fatal("unmaterialized transform must error")
	}
	// Out-of-range index.
	if _, err := loadSource(s, 0); err == nil {
		t.Fatal("empty store load must error")
	}
}

// TestRepRecordHeldToTransform: a served representation is the transform's
// own geometry or it is corrupt. A rep record whose header was rewritten to
// another shape of the same byte count (8×8 gray read back as 4×16) still
// parses as TIMG, and RepRecord must refuse it rather than hand the engine a
// differently shaped representation.
func TestRepRecordHeldToTransform(t *testing.T) {
	dir := t.TempDir()
	tr := testTransforms[0]
	s, err := Create(dir, 16, 16, []xform.Transform{tr})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.IngestAll([]*img.Image{randRGB(rand.New(rand.NewSource(5)), 16)}); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	rec, err := s.RepRecord(0, tr, &buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, repFileName(tr.ID())))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.AppendTo(nil), raw) {
		t.Fatal("RepRecord is not the bytes the rep file holds")
	}
	reshaped := img.Record{W: 4, H: 16, Mode: img.Gray, Pix: rec.Pix}.AppendTo(nil)
	if err := os.WriteFile(filepath.Join(dir, repFileName(tr.ID())), reshaped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RepRecord(0, tr, &buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a 4x16 record in the %s file: err = %v, want ErrCorrupt", tr.ID(), err)
	}
}

func TestOpenDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := s.IngestAll([]*img.Image{randRGB(rng, 16), randRGB(rng, 16)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Truncate the source file by a few bytes.
	path := filepath.Join(dir, "source.dat")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated store opened: err=%v", err)
	}
}

func TestOpenDetectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad manifest accepted: %v", err)
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("missing manifest must error")
	}
}

// rewriteVersion sets the version field of the manifest in dir and returns
// the manifest's new bytes.
func rewriteVersion(t *testing.T, dir string, version int) []byte {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Version = version
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOpenRefusesVersion1Reps: a version-1 store holds representations the
// float32 resample derived, which the integer derivation does not reproduce
// bit for bit, so Open refuses it as ErrCorrupt and names the fix.
func TestOpenRefusesVersion1Reps(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestAll([]*img.Image{randRGB(rand.New(rand.NewSource(6)), 16)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	rewriteVersion(t, dir, 1)
	_, err = Open(dir)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "tahoma corpus") {
		t.Fatalf("version-1 store with reps: err = %v, want ErrCorrupt naming `tahoma corpus`", err)
	}
}

// TestOpenKeepsVersion1Sources: a version-1 store of source records alone
// holds nothing derived, so Open accepts it, serves its rows, and leaves its
// manifest as it was until an ingest commits a new one, at version 2.
func TestOpenKeepsVersion1Sources(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if err := s.IngestAll([]*img.Image{randRGB(rng, 16), randRGB(rng, 16)}); err != nil {
		t.Fatal(err)
	}
	rec, err := s.SourceRecord(1, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	want := rec.AppendTo(nil)
	s.Close()
	v1 := rewriteVersion(t, dir, 1)
	if s, err = Open(dir); err != nil {
		t.Fatalf("source-only version-1 store: %v", err)
	}
	rec, err = s.SourceRecord(1, new([]byte))
	if err != nil || !bytes.Equal(rec.AppendTo(nil), want) || s.Count() != 2 {
		t.Fatalf("row 1 after open: %v (count %d)", err, s.Count())
	}
	s.Close()
	if raw, _ := os.ReadFile(filepath.Join(dir, manifestName)); !bytes.Equal(raw, v1) {
		t.Fatal("opening a version-1 store rewrote its manifest")
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestOne(s, randRGB(rng, 16)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	var m Manifest
	if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || json.Unmarshal(raw, &m) != nil || m.Version != manifestVersion || m.Count != 3 {
		t.Fatalf("manifest after an ingest: %+v, %v; want version %d, 3 rows", m, err, manifestVersion)
	}
}

func TestOpenDetectsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if err := s.IngestAll([]*img.Image{randRGB(rng, 16)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Smash the record's magic bytes (size unchanged, so Open succeeds but
	// the record read reports corruption).
	path := filepath.Join(dir, "source.dat")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXX"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := loadSource(s2, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt record read succeeded: %v", err)
	}
}

func TestOpenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	want := []*img.Image{randRGB(rng, 16), randRGB(rng, 16)}
	if err := s.IngestAll(want); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash between data append and manifest commit: extra bytes
	// past the manifest's count. Open must truncate them, not refuse.
	path := filepath.Join(dir, "source.dat")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn-tail store refused to open: %v", err)
	}
	defer s2.Close()
	if s2.Count() != 2 {
		t.Fatalf("Count = %d after repair, want 2", s2.Count())
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if wantSize := int64(2 * s2.sourceRecordSize()); info.Size() != wantSize {
		t.Fatalf("source.dat is %d bytes after repair, want %d", info.Size(), wantSize)
	}
	if _, err := loadSource(s2, 1); err != nil {
		t.Fatalf("acked record unreadable after repair: %v", err)
	}
}

func TestIngestAfterOpenAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	first := randRGB(rng, 16)
	if _, err := ingestOne(s, first); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// An opened store must APPEND, not overwrite record 0.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	second := randRGB(rng, 16)
	idx, err := ingestOne(s2, second)
	if err != nil {
		t.Fatalf("ingest into opened store: %v", err)
	}
	if idx != 1 {
		t.Fatalf("ingest index %d, want 1", idx)
	}
	got0, err := loadSource(s2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range first.Pix {
		d := got0.Pix[j] - first.Pix[j]
		if d < -0.01 || d > 0.01 {
			t.Fatal("record 0 clobbered by post-open ingest")
		}
	}
}

func TestTruncateTo(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	var ims []*img.Image
	for i := 0; i < 5; i++ {
		ims = append(ims, randRGB(rng, 16))
	}
	if err := s.IngestAll(ims); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateTo(3); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d after TruncateTo(3)", s.Count())
	}
	if _, err := loadSource(s, 3); err == nil {
		t.Fatal("truncated record still readable")
	}
	// Re-append lands at index 3 and survives a reopen.
	if idx, err := ingestOne(s, randRGB(rng, 16)); err != nil || idx != 3 {
		t.Fatalf("post-truncate ingest = (%d, %v)", idx, err)
	}
	if err := s.TruncateTo(10); err == nil {
		t.Fatal("TruncateTo beyond count accepted")
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 4 {
		t.Fatalf("Count = %d after reopen, want 4", s2.Count())
	}
}

func TestFaultManifestWriteError(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	if _, err := ingestOne(s, randRGB(rng, 16)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("manifest write lost")
	// The first fs.write-error hit of an ingest is its data write; the
	// second is the manifest.
	if err := faults.Enable(faults.FSWriteError, faults.Spec{Err: boom, Skip: 1, Times: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestOne(s, randRGB(rng, 16)); !errors.Is(err, boom) {
		t.Fatalf("ingest under manifest fault = %v, want %v", err, boom)
	}
	// The failed ingest was never acknowledged: count holds, and a retry
	// lands at the same index.
	if s.Count() != 1 {
		t.Fatalf("Count = %d after failed ingest, want 1", s.Count())
	}
	if idx, err := ingestOne(s, randRGB(rng, 16)); err != nil || idx != 1 {
		t.Fatalf("retry ingest = (%d, %v), want index 1", idx, err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("store unopenable after failed+retried ingest: %v", err)
	}
	defer s2.Close()
	if s2.Count() != 2 {
		t.Fatalf("reopened Count = %d, want 2", s2.Count())
	}
}

// hashDir is the SHA-256 over every file of a store directory, names
// included, in name order.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestIngestAllBytesPinned holds IngestAll, batches of one included, to the
// files it writes. Every representation is derived from the row's stored
// source record (T(Q(src))), so the hash is the one AppendRecords of the
// same frames' records writes. The input is not u8-exact, so
// a rep derived from the caller's pixels instead of the record would change
// it; 400 rows of 32×32 cross a write chunk; the last row is appended alone
// after a reopen. The hash was last re-pinned when the derivation became
// exact integer arithmetic and the manifest went to version 2.
func TestIngestAllBytesPinned(t *testing.T) {
	const pinned = "d5b3b903a4f2d92970719c24ca31f0246306e3daa3e694bdb089cad9e6794012"
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	ims := make([]*img.Image, 400)
	for i := range ims {
		ims[i] = randRGB(rng, 32)
	}
	s, err := Create(dir, 32, 32, testTransforms)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestAll(ims[:399]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if idx, err := ingestOne(s, ims[399]); err != nil || idx != 399 {
		t.Fatalf("ingest after reopen = (%d, %v), want index 399", idx, err)
	}
	if got := hashDir(t, dir); got != pinned {
		t.Fatalf("store files hash to %s, pinned %s", got, pinned)
	}
}

// u8Exact returns a random image whose samples are all multiples of 1/255 —
// what a decoded record holds, and all /ingest can send.
func u8Exact(rng *rand.Rand, size int) *img.Image {
	im := img.New(size, size, img.RGB)
	for i := range im.Pix {
		im.Pix[i] = img.Unit(byte(rng.Intn(256)))
	}
	return im
}

func recordsOf(t *testing.T, ims []*img.Image) []img.Record {
	t.Helper()
	recs := make([]img.Record, len(ims))
	for i, im := range ims {
		raw, err := img.AppendRecord(nil, im)
		if err != nil {
			t.Fatal(err)
		}
		if recs[i], err = img.ParseRecord(raw); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// writeChunks is how many write chunks a batch of rows size×size frames is
// staged in.
func writeChunks(rows, size int) int {
	record := img.EncodedSize(size, size, img.RGB)
	perChunk := (writeChunk + record - 1) / record
	return (rows + perChunk - 1) / perChunk
}

// TestRecordAppendMatchesImageIngest: the three ways in — IngestAll of the
// images, AppendRecords of their records, WriteRecords plus Sync — leave
// byte-identical store directories, reps included, at any GOMAXPROCS. The
// frames are not u8-exact, so IngestAll must derive each rep from the record
// it stored, not from the caller's pixels; 70 rows of 32×32 cross three write
// chunks, so the multi-chunk batches are staged in parallel.
func TestRecordAppendMatchesImageIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ims := make([]*img.Image, 70)
	for i := range ims {
		ims[i] = randRGB(rng, 32)
	}
	if chunks := writeChunks(len(ims), 32); chunks < 3 {
		t.Fatalf("%d rows cross %d write chunks, want at least 3", len(ims), chunks)
	}
	recs := recordsOf(t, ims)
	fills := []struct {
		name string
		fill func(s *Store) error
	}{
		{"IngestAll", func(s *Store) error { return s.IngestAll(ims) }},
		{"AppendRecords", func(s *Store) error {
			if err := s.AppendRecords(recs[:4]); err != nil {
				return err
			}
			return s.AppendRecords(recs[4:])
		}},
		{"WriteRecords+Sync", func(s *Store) error {
			if err := s.WriteRecords(0, recs[:4]); err != nil {
				return err
			}
			if err := s.WriteRecords(4, recs[4:]); err != nil {
				return err
			}
			// Replaying a batch over itself changes nothing.
			if err := s.WriteRecords(2, recs[2:60]); err != nil {
				return err
			}
			return s.Sync()
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, f := range fills {
			dir := t.TempDir()
			s, err := Create(dir, 32, 32, testTransforms)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.fill(s); err != nil {
				t.Fatal(err)
			}
			if s.Count() != len(ims) {
				t.Fatalf("%s at GOMAXPROCS %d: Count = %d, want %d", f.name, procs, s.Count(), len(ims))
			}
			s.Close()
			got := hashDir(t, dir)
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("%s at GOMAXPROCS %d left a store hashing to %s, IngestAll at GOMAXPROCS 1 to %s", f.name, procs, got, want)
			}
		}
	}
}

// TestWriteRecordsUnvouchedUntilSync is the journaled append's contract: the
// rows are readable at once and cost no fsync and no manifest write, a crash
// before Sync loses them to Open's tail rule, writing them again from the
// same records restores the same bytes, and after Sync the manifest keeps
// them.
func TestWriteRecordsUnvouchedUntilSync(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	ims := []*img.Image{u8Exact(rng, 16), u8Exact(rng, 16), u8Exact(rng, 16), u8Exact(rng, 16), u8Exact(rng, 16)}
	recs := recordsOf(t, ims)
	s, err := Create(dir, 16, 16, testTransforms[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendRecords(recs[:2]); err != nil {
		t.Fatal(err)
	}

	// Count the durability-layer calls of the unsynced write: one data write,
	// no fsync, no manifest (a second fs.write-error hit).
	for _, p := range []string{faults.FSWriteError, faults.FSSyncError} {
		if err := faults.Enable(p, faults.Spec{Skip: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteRecords(2, recs[2:]); err != nil {
		t.Fatal(err)
	}
	if w, f := faults.Hits(faults.FSWriteError), faults.Hits(faults.FSSyncError); w != 1 || f != 0 {
		t.Fatalf("WriteRecords made %d write-point and %d fsync-point calls, want 1 and 0", w, f)
	}
	faults.Reset()
	if s.Count() != 5 {
		t.Fatalf("Count = %d after WriteRecords, want 5", s.Count())
	}
	var scratch []byte
	if got, err := s.SourceRecord(4, &scratch); err != nil || !bytes.Equal(got.Pix, recs[4].Pix) {
		t.Fatalf("row 4 unreadable before Sync: %v", err)
	}
	if err := s.WriteRecords(7, recs[:1]); err == nil {
		t.Fatal("a write leaving a gap was accepted")
	}
	if err := s.WriteRecords(5, recordsOf(t, []*img.Image{img.New(8, 8, img.RGB)})); err == nil {
		t.Fatal("a record of the wrong geometry was accepted")
	}

	// Crash before Sync: the manifest still says 2, so Open cuts the tail.
	crashed := t.TempDir()
	copyStore(t, dir, crashed)
	s2, err := Open(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 2 {
		t.Fatalf("reopened an unsynced store with %d rows, want the 2 the manifest vouches for", s2.Count())
	}
	// Redo from the same records, then Sync: the two directories match.
	if err := s2.WriteRecords(2, recs[2:]); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, s2} {
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := hashDir(t, dir), hashDir(t, crashed); a != b {
		t.Fatalf("redo left different bytes than the live write: %s vs %s", a, b)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Count() != 5 {
		t.Fatalf("reopened a synced store with %d rows, want 5", s3.Count())
	}
}

func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFaultDataWriteErrorRetryable: a failed or short data write fails the
// batch before anything vouches for it — the count holds, and the retry
// overwrites the torn bytes in place. The batches are one write chunk, failing
// on its only write, and three chunks staged in parallel, failing on a middle
// write (Skip: 1).
func TestFaultDataWriteErrorRetryable(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	rng := rand.New(rand.NewSource(10))
	ims := make([]*img.Image, 200)
	for i := range ims {
		ims[i] = randRGB(rng, 16)
	}
	if chunks := writeChunks(len(ims), 16); chunks != 3 {
		t.Fatalf("%d rows cross %d write chunks, want 3", len(ims), chunks)
	}
	recs := recordsOf(t, ims)
	for _, batch := range []struct {
		name string
		recs []img.Record
		skip int
	}{{"one chunk", recs[:3], 0}, {"three chunks", recs, 1}} {
		clean := t.TempDir()
		ref, err := Create(clean, 16, 16, testTransforms[:1])
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.AppendRecords(batch.recs); err != nil {
			t.Fatal(err)
		}
		ref.Close()
		for _, point := range []string{faults.FSWriteError, faults.FSShortWrite} {
			dir := t.TempDir()
			s, err := Create(dir, 16, 16, testTransforms[:1])
			if err != nil {
				t.Fatal(err)
			}
			if err := faults.Enable(point, faults.Spec{Skip: batch.skip, Times: 1}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendRecords(batch.recs); err == nil {
				t.Fatalf("%s, %s: append acknowledged", batch.name, point)
			}
			if s.Count() != 0 {
				t.Fatalf("%s, %s: failed append left Count = %d", batch.name, point, s.Count())
			}
			if err := s.AppendRecords(batch.recs); err != nil {
				t.Fatalf("%s, %s: retry: %v", batch.name, point, err)
			}
			s.Close()
			if a, b := hashDir(t, dir), hashDir(t, clean); a != b {
				t.Fatalf("%s, %s: retried store differs from a clean one", batch.name, point)
			}
		}
	}
}

// TestGeometryCheckedBeforeAnyWrite: a multi-chunk batch whose last image is
// the wrong geometry is refused with ErrGeometry before any chunk is written —
// every data file keeps its size and the count holds — by either way in.
func TestGeometryCheckedBeforeAnyWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ims := make([]*img.Image, 200)
	for i := range ims {
		ims[i] = randRGB(rng, 16)
	}
	ims[len(ims)-1] = randRGB(rng, 8)
	recs := recordsOf(t, ims)
	dir := t.TempDir()
	s, err := Create(dir, 16, 16, testTransforms)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.IngestAll(ims[:5]); err != nil {
		t.Fatal(err)
	}
	sizes := func() map[string]int64 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64)
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = info.Size()
		}
		return out
	}
	before := sizes()
	for name, write := range map[string]func() error{
		"IngestAll":     func() error { return s.IngestAll(ims) },
		"AppendRecords": func() error { return s.AppendRecords(recs) },
		"WriteRecords":  func() error { return s.WriteRecords(5, recs) },
	} {
		if err := write(); !errors.Is(err, ErrGeometry) {
			t.Fatalf("%s: err = %v, want ErrGeometry", name, err)
		}
		if s.Count() != 5 {
			t.Fatalf("%s: refused batch left Count = %d, want 5", name, s.Count())
		}
		if after := sizes(); !maps.Equal(after, before) {
			t.Fatalf("%s: refused batch changed file sizes: %v, was %v", name, after, before)
		}
	}
}

package matstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"tahoma/internal/faults"
)

// Persistence: a store's columns serialize to a flat binary image so a
// process restart over the same corpus can resume with warm labels instead
// of re-running inference. The format is defensive: every frame (the header
// and each column) is length-prefixed and CRC32-checksummed, and the header
// carries a corpus tag (a fingerprint of the corpus the labels were computed
// over), so a truncated file, a bit flip, or a file from a different corpus
// refuses to load with a descriptive error instead of resurrecting garbage
// labels. Loading parses the whole file into fresh columns before swapping
// them in, so a failed load leaves the resident store untouched.

const (
	persistMagic = "TAHMAT2\n"
	// legacyMagic is the pre-checksummed format; it is refused with a
	// descriptive error rather than trusted.
	legacyMagic = "TAHMAT1\n"
	// maxFrame bounds a single frame so a corrupt length cannot drive a
	// giant allocation.
	maxFrame = 1 << 30
)

var crcTable = crc32.IEEETable

// writeFrame emits one length-prefixed, checksummed frame:
// [len uint32][payload][crc32(payload) uint32].
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(hdr[:])
	return err
}

// readFrame reads one frame, verifying its checksum. what names the frame in
// errors.
func readFrame(r io.Reader, what string) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("matstore: %s: truncated frame length: %w", what, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("matstore: %s: corrupt frame length %d", what, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("matstore: %s: truncated frame (want %d bytes): %w", what, n, err)
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("matstore: %s: truncated checksum: %w", what, err)
	}
	want := binary.LittleEndian.Uint32(hdr[:])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("matstore: %s: checksum mismatch (file %08x, computed %08x) — file is corrupt", what, want, got)
	}
	return payload, nil
}

// Save serializes the resident columns (usage and counters are workload
// state, not corpus state; they are not persisted). tag fingerprints the
// corpus the labels were computed over; Load refuses a file whose tag does
// not match, because materialized labels are only meaningful against the
// exact corpus they were computed from.
func (s *Store) Save(w io.Writer, tag uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	keys := make([]Key, 0, len(s.cols))
	for k := range s.cols {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, s.gen)
	binary.Write(&buf, binary.LittleEndian, tag)
	binary.Write(&buf, binary.LittleEndian, int64(len(keys)))
	if err := writeFrame(bw, buf.Bytes()); err != nil {
		return err
	}

	for _, k := range keys {
		col := s.cols[k]
		buf.Reset()
		writeString(&buf, k.Category)
		writeString(&buf, k.Cascade)
		binary.Write(&buf, binary.LittleEndian, int64(col.Len()))
		binary.Write(&buf, binary.LittleEndian, int64(col.prefix))
		binary.Write(&buf, binary.LittleEndian, col.labels.Words())
		binary.Write(&buf, binary.LittleEndian, col.valid.Words())
		if err := writeFrame(bw, buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load replaces the resident columns with a previously saved image and
// restores the saved generation. The whole file is parsed and verified
// first — magic, per-frame checksums, corpus tag, column invariants — and
// the resident columns are swapped only on full success, so any failure
// leaves the store untouched. Usage and counters are untouched either way.
func (s *Store) Load(r io.Reader, wantTag uint64) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("matstore: reading header: %w", err)
	}
	switch string(magic) {
	case persistMagic:
	case legacyMagic:
		return fmt.Errorf("matstore: legacy unchecksummed TAHMAT1 file refused (integrity cannot be verified); re-materialize and re-save")
	default:
		return fmt.Errorf("matstore: not a materialized-label file (magic %q)", magic)
	}

	hdr, err := readFrame(br, "header")
	if err != nil {
		return err
	}
	hr := bytes.NewReader(hdr)
	var gen int64
	var tag uint64
	var count int64
	if err := binary.Read(hr, binary.LittleEndian, &gen); err != nil {
		return fmt.Errorf("matstore: header: %w", err)
	}
	if err := binary.Read(hr, binary.LittleEndian, &tag); err != nil {
		return fmt.Errorf("matstore: header: %w", err)
	}
	if err := binary.Read(hr, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("matstore: header: %w", err)
	}
	if tag != wantTag {
		return fmt.Errorf("matstore: file was saved over a different corpus (tag %016x, this corpus %016x) — labels refuse to load", tag, wantTag)
	}
	if count < 0 {
		return fmt.Errorf("matstore: corrupt column count %d", count)
	}

	cols := make(Columns, count)
	for i := int64(0); i < count; i++ {
		frame, err := readFrame(br, fmt.Sprintf("column %d", i))
		if err != nil {
			return err
		}
		fr := bytes.NewReader(frame)
		cat, err := readString(fr)
		if err != nil {
			return fmt.Errorf("matstore: column %d: %w", i, err)
		}
		casc, err := readString(fr)
		if err != nil {
			return fmt.Errorf("matstore: column %d: %w", i, err)
		}
		var meta [2]int64
		if err := binary.Read(fr, binary.LittleEndian, &meta); err != nil {
			return fmt.Errorf("matstore: column %d: %w", i, err)
		}
		n, prefix := int(meta[0]), int(meta[1])
		if n < 0 || prefix < 0 || prefix > n {
			return fmt.Errorf("matstore: column %d: corrupt length %d / prefix %d", i, n, prefix)
		}
		col := NewColumn()
		col.Grow(n)
		col.prefix = prefix
		if err := binary.Read(fr, binary.LittleEndian, col.labels.Words()); err != nil {
			return fmt.Errorf("matstore: column %d labels: %w", i, err)
		}
		if err := binary.Read(fr, binary.LittleEndian, col.valid.Words()); err != nil {
			return fmt.Errorf("matstore: column %d validity: %w", i, err)
		}
		if fr.Len() != 0 {
			return fmt.Errorf("matstore: column %d: %d trailing bytes in frame", i, fr.Len())
		}
		// Re-establish the column invariants against a damaged file: bits
		// beyond Len stay zero (Count depends on it) and a label is only
		// set where the row is valid (Narrow depends on it).
		lw, vw := col.labels.Words(), col.valid.Words()
		if n%64 != 0 && len(vw) > 0 {
			mask := uint64(1)<<(uint(n)&63) - 1
			lw[len(lw)-1] &= mask
			vw[len(vw)-1] &= mask
		}
		for w := range lw {
			lw[w] &= vw[w]
		}
		cols[Key{Category: cat, Cascade: casc}] = col.freeze()
	}
	// A valid file has nothing after the last column.
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("matstore: trailing data after last column — file is corrupt")
	}
	s.cols = cols
	s.gen = gen
	return nil
}

// SaveFile writes the store image to path. The faults.MatTornWrite point
// simulates a crash mid-write by truncating the finished file — the torn
// result must refuse to load.
func (s *Store) SaveFile(path string, tag uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f, tag); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if faults.Firing(faults.MatTornWrite) {
		if fi, err := os.Stat(path); err == nil {
			_ = os.Truncate(path, fi.Size()*2/3)
		}
	}
	return nil
}

// LoadFile replaces the resident columns from path; any verification
// failure leaves the store untouched.
func (s *Store) LoadFile(path string, tag uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f, tag)
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<20 {
		return "", fmt.Errorf("corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

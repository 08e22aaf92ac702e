package matstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tahoma/internal/faults"
)

// persistFixture builds a store with a few populated columns and returns its
// serialized image under tag.
func persistFixture(t *testing.T, tag uint64) (*Store, []byte) {
	t.Helper()
	s := New(0)
	for _, k := range []Key{{"cloak", "c1"}, {"fence", "c9"}} {
		publish(s, k, 200, func(i int) bool { return i%3 == 0 }, func(i int) bool { return i%2 == 0 })
	}
	var buf bytes.Buffer
	if err := s.Save(&buf, tag); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

func TestPersistBitFlipRefusedStoreUntouched(t *testing.T) {
	_, image := persistFixture(t, 7)

	dst := New(0)
	publish(dst, Key{"resident", "r"}, 10, all, all)
	before := dst.Stats().CoveredRows

	// Flip one bit in every byte position in turn is overkill; flip a byte in
	// the middle of a column frame (past magic + header frame).
	for _, off := range []int{len(persistMagic) + 30, len(image) / 2, len(image) - 5} {
		corrupt := append([]byte(nil), image...)
		corrupt[off] ^= 0x40
		err := dst.Load(bytes.NewReader(corrupt), 7)
		if err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
		if dst.Stats().CoveredRows != before {
			t.Fatalf("failed load at offset %d mutated the resident store", off)
		}
		if _, ok := dst.Columns()[Key{"resident", "r"}]; !ok {
			t.Fatalf("failed load at offset %d dropped resident columns", off)
		}
	}
}

func TestPersistTruncationRefusedStoreUntouched(t *testing.T) {
	_, image := persistFixture(t, 7)
	dst := New(0)
	publish(dst, Key{"resident", "r"}, 10, all, all)
	// Cut mid-column (anywhere strictly inside the file).
	for _, cut := range []int{len(image) - 1, len(image) - 20, len(image) / 2, len(persistMagic) + 3} {
		err := dst.Load(bytes.NewReader(image[:cut]), 7)
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if _, ok := dst.Columns()[Key{"resident", "r"}]; !ok {
			t.Fatalf("failed load at cut %d dropped resident columns", cut)
		}
	}
}

func TestPersistWrongCorpusTagRefused(t *testing.T) {
	_, image := persistFixture(t, 7)
	dst := New(0)
	err := dst.Load(bytes.NewReader(image), 8)
	if err == nil || !strings.Contains(err.Error(), "different corpus") {
		t.Fatalf("wrong-corpus load: %v", err)
	}
}

func TestPersistLegacyMagicRefused(t *testing.T) {
	dst := New(0)
	err := dst.Load(bytes.NewReader([]byte("TAHMAT1\nwhatever")), 0)
	if err == nil || !strings.Contains(err.Error(), "TAHMAT1") {
		t.Fatalf("legacy load: %v", err)
	}
}

func TestPersistTrailingGarbageRefused(t *testing.T) {
	_, image := persistFixture(t, 7)
	dst := New(0)
	if err := dst.Load(bytes.NewReader(append(append([]byte(nil), image...), 0xFF)), 7); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestFaultTornWriteRefusesToLoad(t *testing.T) {
	faults.Reset()
	defer faults.Reset()
	s, _ := persistFixture(t, 7)
	path := filepath.Join(t.TempDir(), "labels.bin")
	if err := faults.Enable(faults.MatTornWrite, faults.Spec{Times: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path, 7); err != nil {
		t.Fatalf("SaveFile under torn-write fault: %v", err)
	}
	full, whole := persistFixture(t, 7)
	_ = full
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) >= len(whole) {
		t.Fatalf("torn-write fault did not truncate (got %d, whole %d)", len(torn), len(whole))
	}
	dst := New(0)
	if err := dst.LoadFile(path, 7); err == nil {
		t.Fatal("torn file accepted")
	}
}

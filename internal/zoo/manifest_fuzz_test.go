package zoo_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/wal"
	"tahoma/internal/zoo"
)

// The blob frames every fuzzed manifest frame is followed by: weights for one
// c0w0d2k3@2x2/gray network (4·2+2 + 2+1 = 13 float32s) and four eval
// scores, the shape of the committed valid seed.
const (
	fuzzWeightBytes = 4 * 13
	fuzzScoreBytes  = 4 * 4
)

func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// loadManifest packs manifest and the fuzz blobs, one wal frame each, into
// the zoo.bin of a fresh directory, then runs zoo.Load and, when that
// succeeds, core.FromRepo, reporting the first error and the bytes both
// allocated against the bytes on disk.
func loadManifest(t *testing.T, manifest []byte) (allocated, onDisk uint64, err error) {
	var file bytes.Buffer
	for _, frame := range [][]byte{manifest, make([]byte, fuzzWeightBytes), make([]byte, fuzzScoreBytes)} {
		if werr := wal.WriteFrame(&file, frame); werr != nil {
			t.Fatal(werr)
		}
	}
	dir := t.TempDir()
	if werr := os.WriteFile(filepath.Join(dir, "zoo.bin"), file.Bytes(), 0o644); werr != nil {
		t.Fatal(werr)
	}
	allocated = allocatedBy(func() {
		var repo *zoo.Repo
		if repo, err = zoo.Load(dir); err == nil {
			_, err = core.FromRepo(repo, core.DefaultConfig())
		}
	})
	return allocated, uint64(file.Len()), err
}

// FuzzManifest holds zoo.Load — the reader `serve -zoo` points at a directory
// it did not write — to its contract on arbitrary manifest bytes in an
// intact zoo file: neither it nor core.FromRepo on what it returns panics,
// and together they allocate at most a small multiple of the bytes on disk
// (the file's length, framing included), whatever network shape,
// transform geometry or threshold count the manifest claims. The committed
// corpus (testdata/fuzz/FuzzManifest) holds a valid one-model manifest, a
// dense layer and a transform each too large to allocate, and a pooling depth
// no int-sized input survives.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest []byte) {
		got, onDisk, _ := loadManifest(t, manifest)
		// The densest claim is a threshold list of 3-byte "{}," entries:
		// JSON decoding plus the evaluator's two bitsets per threshold cost
		// ~60 bytes per manifest byte. The rest is a fixed ~12 KiB.
		if limit := 128*onDisk + 256<<10; got > limit {
			t.Fatalf("%d bytes on disk: Load+FromRepo allocated %d bytes, limit %d", onDisk, got, limit)
		}
	})
}

// TestManifestBombsRejected: manifests whose network would not fit in memory
// are an error from Load, not an allocation the runtime cannot recover from.
// The error must be about the network: a seed refused for its version would
// pass without testing anything.
func TestManifestBombsRejected(t *testing.T) {
	for _, name := range []string{"valid-tiny", "dense-width-bomb", "xform-bomb", "conv-layers-70"} {
		_, _, err := loadManifest(t, seed(t, name))
		if (err == nil) != (name == "valid-tiny") || err != nil && strings.Contains(err.Error(), "version") {
			t.Errorf("%s: Load+FromRepo error = %v", name, err)
		}
	}
}

// seed returns the manifest bytes of one committed FuzzManifest corpus file.
func seed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzManifest", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a []byte fuzz corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

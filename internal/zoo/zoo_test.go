package zoo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/faults"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/thresh"
	"tahoma/internal/wal"
	"tahoma/internal/xform"
)

// buildRepo returns a two-model repository whose weights are drawn from
// seed: a basic gray model with eval scores and a deep RGB one without.
func buildRepo(t *testing.T, seed int64) *Repo {
	t.Helper()
	spec := arch.Spec{ConvLayers: 1, ConvWidth: 2, DenseWidth: 4, Kernel: 3}
	m1, err := model.New(spec, xform.Transform{Size: 8, Color: img.Gray}, model.Basic, seed)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := model.New(arch.Spec{ConvLayers: 2, ConvWidth: 4, DenseWidth: 4, Kernel: 3},
		xform.Transform{Size: 16, Color: img.RGB}, model.Deep, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return &Repo{
		Predicate: "fence",
		EvalTruth: []bool{true, false, true},
		Entries: []Entry{
			{
				Model:      m1,
				Thresholds: []thresh.Thresholds{{Low: 0.2, High: 0.8, Target: 0.95}},
				EvalScores: []float32{0.9, 0.1, 0.7},
			},
			{
				Model:      m2,
				Thresholds: []thresh.Thresholds{{Low: 0.3, High: 0.7, Target: 0.95}},
			},
		},
	}
}

func sameBits(a, b []float32) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// sameRepo fails t unless got holds want's predicate and eval truth and, per
// entry, the same model, thresholds and eval scores bit for bit, and unless
// each reloaded model scores a random representation to the same bits.
func sameRepo(t *testing.T, got, want *Repo) {
	t.Helper()
	if got.Predicate != want.Predicate || !slices.Equal(got.EvalTruth, want.EvalTruth) ||
		len(got.Entries) != len(want.Entries) {
		t.Fatalf("repository %q truth %v with %d entries, want %q truth %v with %d",
			got.Predicate, got.EvalTruth, len(got.Entries), want.Predicate, want.EvalTruth, len(want.Entries))
	}
	rng := rand.New(rand.NewSource(3))
	for i, w := range want.Entries {
		g := got.Entries[i]
		if g.Model.ID() != w.Model.ID() || g.Model.Kind != w.Model.Kind ||
			!slices.Equal(g.Thresholds, w.Thresholds) || !sameBits(g.EvalScores, w.EvalScores) ||
			!sameBits(g.Model.Net.Weights(), w.Model.Net.Weights()) {
			t.Fatalf("entry %d: %s (%v) thresholds %v scores %v, want %s (%v) thresholds %v scores %v, or weights differ",
				i, g.Model.ID(), g.Model.Kind, g.Thresholds, g.EvalScores,
				w.Model.ID(), w.Model.Kind, w.Thresholds, w.EvalScores)
		}
		rep := img.New(w.Model.Xform.Size, w.Model.Xform.Size, w.Model.Xform.Color)
		for p := range rep.Pix {
			rep.Pix[p] = rng.Float32()
		}
		ws, err := w.Model.Score(rep)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := g.Model.Score(rep)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(gs) != math.Float32bits(ws) {
			t.Fatalf("entry %d: reloaded model scores %v, want %v", i, gs, ws)
		}
	}
}

// saved saves r to a fresh directory and returns it with zoo.bin's bytes.
func saved(t *testing.T, r *Repo) (dir string, data []byte) {
	t.Helper()
	dir = t.TempDir()
	if err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fileName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

// splitFrames returns the payloads of the frames data holds.
func splitFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(data) > 0 {
		payload, rest, err := wal.SplitFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		frames, data = append(frames, payload), rest
	}
	return frames
}

func packFrames(t *testing.T, frames ...[]byte) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range frames {
		if err := wal.WriteFrame(&b, f); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// loadBytes loads a repository directory holding data as its zoo.bin.
func loadBytes(t *testing.T, data []byte) (*Repo, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Load(dir)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := buildRepo(t, 1)
	dir, _ := saved(t, r)
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameRepo(t, got, r)
	if got.Entries[1].EvalScores != nil {
		t.Fatal("missing scores should stay nil")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != fileName {
		t.Fatalf("repository directory holds %v, want only %s", ents, fileName)
	}
}

// TestZooBytesPinned pins the bytes of a fixed repository's zoo.bin: a
// change to how the zoo is framed or encoded must keep this digest, since
// Load reads files an older build wrote.
func TestZooBytesPinned(t *testing.T) {
	_, data := saved(t, buildRepo(t, 1))
	sum := sha256.Sum256(data)
	if got, want := hex.EncodeToString(sum[:]), "6dbe816f1a9491b7457fc6a7547cbf8b4ebcd888ed203678ca6c798aa05d5de3"; got != want {
		t.Fatalf("zoo.bin SHA-256 %s, want %s", got, want)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("missing zoo.bin must error")
	}
	if _, err := loadBytes(t, packFrames(t, []byte("{bad"))); err == nil {
		t.Fatal("bad manifest must error")
	}
}

// TestLoadRefusesVersion1: a directory in the old layout — manifest.json
// beside per-model blob files — is refused with an error that says how to
// rebuild it.
func TestLoadRefusesVersion1(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"manifest.json": `{"version":1,"predicate":"fence","models":[]}`,
		"weights-0.bin": "",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "tahoma init") {
		t.Fatalf("version 1 directory: Load error = %v, want one naming `tahoma init`", err)
	}
}

// TestSaveOverVersion1: a Save over a version-1 directory leaves zoo.bin
// and every file that was not the old repository's, and the saved zoo loads
// and scores bit-identically.
func TestSaveOverVersion1(t *testing.T) {
	dir := t.TempDir()
	stale := []string{"manifest.json", "weights-0.bin", "scores-0.bin", "weights-17.bin", "scores-3.bin"}
	kept := []string{"notes.txt", "weights-.bin", "weights-x.bin", "scores-1.bin.bak", "weights-1.json", "manifest.json.orig"}
	for _, name := range append(slices.Clone(stale), kept...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := buildRepo(t, 1)
	if err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := append(slices.Clone(kept), fileName)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("after Save over a version 1 directory it holds %v, want %v", names, want)
	}
	for _, name := range kept {
		if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(data) != name {
			t.Fatalf("%s: %q, %v; want it untouched", name, data, err)
		}
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameRepo(t, got, r)
}

// TestLoadDetectsTruncatedWeights: a weight frame one model's spec does not
// fit is refused even when its checksum is intact.
func TestLoadDetectsTruncatedWeights(t *testing.T) {
	_, data := saved(t, buildRepo(t, 1))
	frames := splitFrames(t, data)
	weights := frames[1]
	for _, cut := range []int{3, 4} { // not a float32 multiple, then one weight short
		frames[1] = weights[:len(weights)-cut]
		if _, err := loadBytes(t, packFrames(t, frames...)); err == nil {
			t.Fatalf("weight frame %d bytes short must error", cut)
		}
	}
}

// TestLoadRefusesDamagedFile: zoo.bin truncated at any frame boundary, with a
// byte flipped in any frame, or followed by stray bytes is refused.
func TestLoadRefusesDamagedFile(t *testing.T) {
	_, data := saved(t, buildRepo(t, 1))
	frames := splitFrames(t, data)
	if len(frames) != 4 { // manifest, weights 0, scores 0, weights 1
		t.Fatalf("zoo.bin holds %d frames, want 4", len(frames))
	}
	start := 0 // frame i's offset: length, payload, CRC
	for i, f := range frames {
		if _, err := loadBytes(t, data[:start]); err == nil {
			t.Errorf("truncated before frame %d: loaded", i)
		}
		flipped := bytes.Clone(data)
		flipped[start+4+len(f)/2] ^= 0x20
		if _, err := loadBytes(t, flipped); err == nil {
			t.Errorf("byte flipped in frame %d: loaded", i)
		}
		start += 4 + len(f) + 4
	}
	for _, tail := range [][]byte{{0}, packFrames(t, frames[3])} {
		if _, err := loadBytes(t, append(bytes.Clone(data), tail...)); err == nil {
			t.Errorf("%d stray bytes after the last frame: loaded", len(tail))
		}
	}
}

// TestSaveFaultKeepsOldZoo enumerates every fault point a clean Save reaches
// and fails each in turn during a Save over an existing repository: the old
// repository must load bit-identically and no temp file may be left behind.
func TestSaveFaultKeepsOldZoo(t *testing.T) {
	defer faults.Reset()
	old, next := buildRepo(t, 1), buildRepo(t, 7)
	next.Predicate = "cloak"
	points := []string{faults.FSWriteError, faults.FSShortWrite, faults.FSSyncError}

	// The clean run: count each point's hits without firing any.
	hits, total := map[string]int{}, 0
	for _, p := range points {
		if err := faults.Enable(p, faults.Spec{Skip: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	saved(t, next)
	for _, p := range points {
		hits[p] = int(faults.Hits(p))
		total += hits[p]
	}
	faults.Reset()
	if total == 0 {
		t.Fatal("a clean Save reached no fault point")
	}

	for _, p := range points {
		for k := range hits[p] {
			dir, _ := saved(t, old)
			if err := faults.Enable(p, faults.Spec{Skip: k, Times: 1}); err != nil {
				t.Fatal(err)
			}
			err := Save(dir, next)
			faults.Reset()
			if err == nil {
				t.Fatalf("%s hit %d: Save succeeded", p, k)
			}
			got, err := Load(dir)
			if err != nil {
				t.Fatalf("%s hit %d: old zoo does not load: %v", p, k, err)
			}
			sameRepo(t, got, old)
			if _, err := os.Stat(filepath.Join(dir, fileName+".tmp")); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s hit %d: temp file left behind (stat: %v)", p, k, err)
			}
		}
	}
	t.Logf("%d fault points enumerated: %v", total, hits)
}

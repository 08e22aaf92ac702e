package zoo

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

func buildRepo(t *testing.T) *Repo {
	t.Helper()
	spec := arch.Spec{ConvLayers: 1, ConvWidth: 2, DenseWidth: 4, Kernel: 3}
	m1, err := model.New(spec, xform.Transform{Size: 8, Color: img.Gray}, model.Basic, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := model.New(arch.Spec{ConvLayers: 2, ConvWidth: 4, DenseWidth: 4, Kernel: 3},
		xform.Transform{Size: 16, Color: img.RGB}, model.Deep, 2)
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

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := buildRepo(t)
	if err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Predicate != "fence" || len(got.Entries) != 2 {
		t.Fatalf("basic fields wrong: %+v", got)
	}
	if len(got.EvalTruth) != 3 || !got.EvalTruth[0] || got.EvalTruth[1] {
		t.Fatal("truth labels wrong")
	}

	// Model identity, kind and thresholds survive.
	for i := range r.Entries {
		if got.Entries[i].Model.ID() != r.Entries[i].Model.ID() {
			t.Fatalf("entry %d id %s vs %s", i, got.Entries[i].Model.ID(), r.Entries[i].Model.ID())
		}
		if got.Entries[i].Model.Kind != r.Entries[i].Model.Kind {
			t.Fatal("kind not preserved")
		}
		if len(got.Entries[i].Thresholds) != 1 ||
			got.Entries[i].Thresholds[0] != r.Entries[i].Thresholds[0] {
			t.Fatal("thresholds not preserved")
		}
	}
	// Scores preserved (and absence preserved).
	if len(got.Entries[0].EvalScores) != 3 || got.Entries[0].EvalScores[2] != 0.7 {
		t.Fatal("scores not preserved")
	}
	if got.Entries[1].EvalScores != nil {
		t.Fatal("missing scores should stay nil")
	}

	// The reloaded network must produce identical outputs.
	rng := rand.New(rand.NewSource(3))
	rep := img.New(8, 8, img.Gray)
	for i := range rep.Pix {
		rep.Pix[i] = rng.Float32()
	}
	want, err := r.Entries[0].Model.Score(rep)
	if err != nil {
		t.Fatal(err)
	}
	gotScore, err := got.Entries[0].Model.Score(rep)
	if err != nil {
		t.Fatal(err)
	}
	if want != gotScore {
		t.Fatalf("reloaded model scores %v, want %v", gotScore, want)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("missing manifest must error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("bad manifest must error")
	}
}

func TestLoadDetectsTruncatedWeights(t *testing.T) {
	dir := t.TempDir()
	r := buildRepo(t)
	if err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	// Truncate a weights blob to a non-multiple-of-4 size.
	path := filepath.Join(dir, "weights-0.bin")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("truncated weights must error")
	}
	// Truncate to a multiple of 4 — wrong count, still an error.
	if err := os.Truncate(path, info.Size()-4); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("short weights must error")
	}
}

// TestLoadIgnoresLegacyQuantRecord: manifests written while models still
// carried an int8 calibration record ("quant", one per calibrated model) load
// as they always did, and the record changes nothing: every model scores
// bit-identically to the same repository saved without it.
func TestLoadIgnoresLegacyQuantRecord(t *testing.T) {
	plainDir, legacyDir := t.TempDir(), t.TempDir()
	r := buildRepo(t)
	for _, dir := range []string{plainDir, legacyDir} {
		if err := Save(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(legacyDir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["models"].([]any)[0].(map[string]any)["quant"] = map[string]any{
		"act_scales": []float32{0.0078125, 0.0213, 0.0441},
		"max_err":    0.0031,
	}
	if raw, err = json.MarshalIndent(m, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	plain, err := Load(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(legacyDir)
	if err != nil {
		t.Fatalf("manifest with a quant record must still load: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := range plain.Entries {
		pm, lm := plain.Entries[i].Model, legacy.Entries[i].Model
		if pm.ID() != lm.ID() {
			t.Fatalf("entry %d: %s vs %s", i, lm.ID(), pm.ID())
		}
		reps := make([]*img.Image, 5)
		for k := range reps {
			reps[k] = img.New(pm.Xform.Size, pm.Xform.Size, pm.Xform.Color)
			for p := range reps[k].Pix {
				reps[k].Pix[p] = rng.Float32()
			}
		}
		want, got := make([]float32, len(reps)), make([]float32, len(reps))
		if err := pm.ScoreBatchInto(reps, want); err != nil {
			t.Fatal(err)
		}
		if err := lm.ScoreBatchInto(reps, got); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
				t.Fatalf("entry %d rep %d: legacy manifest scores %v, plain %v", i, k, got[k], want[k])
			}
		}
	}
}

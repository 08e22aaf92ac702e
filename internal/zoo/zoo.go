// Package zoo is TAHOMA's model repository: it persists the artifacts of
// system initialization for one binary predicate — trained model weights,
// calibrated decision thresholds, and the precomputed evaluation-set scores
// that make query-time cascade selection cheap (Figure 2's "Models" store).
//
// Layout of a repository directory:
//
//	manifest.json  — predicate, model identities, thresholds, truth labels
//	weights-N.bin  — float32 little-endian weight blob per model
//	scores-N.bin   — float32 little-endian eval scores per model (optional)
package zoo

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"tahoma/internal/arch"
	"tahoma/internal/model"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

// Entry couples one trained model with its calibration and eval outputs.
type Entry struct {
	Model      *model.Model
	Thresholds []thresh.Thresholds
	EvalScores []float32 // probability outputs on the evaluation set (may be nil)
}

// Repo is a model repository for one binary predicate.
type Repo struct {
	Predicate string
	Entries   []Entry
	EvalTruth []bool // ground truth of the evaluation set (may be nil)
}

type manifestEntry struct {
	Arch       arch.Spec           `json:"arch"`
	Xform      string              `json:"xform"`
	Kind       string              `json:"kind"`
	Thresholds []thresh.Thresholds `json:"thresholds"`
	HasScores  bool                `json:"has_scores"`
}

type manifest struct {
	Version   int             `json:"version"`
	Predicate string          `json:"predicate"`
	Models    []manifestEntry `json:"models"`
	EvalTruth []bool          `json:"eval_truth,omitempty"`
}

// Save writes the repository to dir, creating it if needed.
func Save(dir string, r *Repo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("zoo: creating %s: %w", dir, err)
	}
	m := manifest{Version: 1, Predicate: r.Predicate, EvalTruth: r.EvalTruth}
	for i, e := range r.Entries {
		kind := e.Model.Kind.String()
		m.Models = append(m.Models, manifestEntry{
			Arch:       e.Model.Arch,
			Xform:      e.Model.Xform.ID(),
			Kind:       kind,
			Thresholds: e.Thresholds,
			HasScores:  e.EvalScores != nil,
		})
		if err := writeFloats(filepath.Join(dir, fmt.Sprintf("weights-%d.bin", i)), e.Model.Net.Weights()); err != nil {
			return err
		}
		if e.EvalScores != nil {
			if err := writeFloats(filepath.Join(dir, fmt.Sprintf("scores-%d.bin", i)), e.EvalScores); err != nil {
				return err
			}
		}
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("zoo: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
		return fmt.Errorf("zoo: writing manifest: %w", err)
	}
	return nil
}

// Load reads a repository from dir, rebuilding each network from its spec
// and loading its weights.
func Load(dir string) (*Repo, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("zoo: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("zoo: parsing manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("zoo: unsupported manifest version %d", m.Version)
	}
	r := &Repo{Predicate: m.Predicate, EvalTruth: m.EvalTruth}
	for i, me := range m.Models {
		t, err := xform.Parse(me.Xform)
		if err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		kind := model.Basic
		if me.Kind == "deep" {
			kind = model.Deep
		}
		// Size the network from the spec and hold the weight blob to it
		// before building anything: the manifest alone must not be able to
		// make Load allocate more than the files on disk back.
		weightsPath := filepath.Join(dir, fmt.Sprintf("weights-%d.bin", i))
		params, err := me.Arch.ParamCount(t.Channels(), t.Size)
		if err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		fi, err := os.Stat(weightsPath)
		if err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		if fi.Size()%4 != 0 || fi.Size()/4 != int64(params) {
			return nil, fmt.Errorf("zoo: model %d: %s has %d bytes, %s@%s needs %d float32 weights",
				i, weightsPath, fi.Size(), me.Arch.ID(), t.ID(), params)
		}
		mod, err := model.New(me.Arch, t, kind, 0)
		if err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		weights, err := readFloats(weightsPath)
		if err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		if err := mod.Net.SetWeights(weights); err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		e := Entry{Model: mod, Thresholds: me.Thresholds}
		if me.HasScores {
			scores, err := readFloats(filepath.Join(dir, fmt.Sprintf("scores-%d.bin", i)))
			if err != nil {
				return nil, fmt.Errorf("zoo: model %d: %w", i, err)
			}
			e.EvalScores = scores
		}
		r.Entries = append(r.Entries, e)
	}
	return r, nil
}

func writeFloats(path string, vals []float32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("zoo: writing %s: %w", path, err)
	}
	return nil
}

func readFloats(path string) ([]float32, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("zoo: reading %s: %w", path, err)
	}
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("zoo: %s has %d bytes, not a float32 multiple", path, len(buf))
	}
	out := make([]float32, len(buf)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

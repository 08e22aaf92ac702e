// Package zoo is TAHOMA's model repository: it persists the artifacts of
// system initialization for one binary predicate — trained model weights,
// calibrated decision thresholds, and the precomputed evaluation-set scores
// that make query-time cascade selection cheap (Figure 2's "Models" store).
//
// A repository directory holds one file, zoo.bin, a sequence of wal frames
// (length, payload, CRC32). Save replaces it whole with wal.WriteFile, so a
// failed or crashed Save leaves the previous repository as it was; Load
// refuses a torn or corrupt file, and bytes after its last frame.
//
//	manifest — JSON: version 2, predicate, model identities, thresholds, truth labels
//	weights  — per model, float32 little-endian weights
//	scores   — after its weights, a model's float32 eval scores (when has_scores)
package zoo

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"tahoma/internal/arch"
	"tahoma/internal/model"
	"tahoma/internal/thresh"
	"tahoma/internal/wal"
	"tahoma/internal/xform"
)

const fileName = "zoo.bin" // a repository directory's one file

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

// Save writes the repository to dir, creating it if needed. Once zoo.bin is
// committed, it removes the files a version-1 repository kept in dir
// (manifest.json, weights-<n>.bin, scores-<n>.bin) and leaves every other
// file.
func Save(dir string, r *Repo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("zoo: creating %s: %w", dir, err)
	}
	m := manifest{Version: 2, Predicate: r.Predicate, EvalTruth: r.EvalTruth}
	for _, e := range r.Entries {
		m.Models = append(m.Models, manifestEntry{
			Arch:       e.Model.Arch,
			Xform:      e.Model.Xform.ID(),
			Kind:       e.Model.Kind.String(),
			Thresholds: e.Thresholds,
			HasScores:  e.EvalScores != nil,
		})
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("zoo: encoding manifest: %w", err)
	}
	err = wal.WriteFile(filepath.Join(dir, fileName), func(w io.Writer) error {
		err := wal.WriteFrame(w, raw)
		var buf []byte
		for _, e := range r.Entries {
			for _, vals := range [][]float32{e.Model.Net.Weights(), e.EvalScores} {
				if err == nil && vals != nil {
					buf, _ = binary.Append(buf[:0], binary.LittleEndian, vals)
					err = wal.WriteFrame(w, buf)
				}
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	return removeVersion1(dir)
}

// removeVersion1 deletes the files a version-1 repository kept in dir. zoo.bin
// already holds the repository, so a failure here leaves stale files beside
// it, never a torn zoo.
func removeVersion1(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("zoo: %s saved, but listing it for version 1 files: %w", dir, err)
	}
	for _, e := range ents {
		if !isVersion1File(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("zoo: %s saved, but removing version 1 file: %w", dir, err)
		}
	}
	return nil
}

// isVersion1File reports whether name is a version-1 repository's file:
// manifest.json, or weights-<n>.bin or scores-<n>.bin with n decimal.
func isVersion1File(name string) bool {
	if name == "manifest.json" {
		return true
	}
	for _, prefix := range []string{"weights-", "scores-"} {
		if n, ok := strings.CutPrefix(name, prefix); ok {
			n, ok = strings.CutSuffix(n, ".bin")
			return ok && n != "" && strings.Trim(n, "0123456789") == ""
		}
	}
	return false
}

// Load reads a repository from dir, rebuilding each network from its spec
// and loading its weights.
func Load(dir string) (*Repo, error) {
	data, err := os.ReadFile(filepath.Join(dir, fileName))
	if err != nil {
		if _, serr := os.Stat(filepath.Join(dir, "manifest.json")); serr == nil {
			return nil, fmt.Errorf("zoo: %s holds a version 1 repository; re-run `tahoma init` to rebuild it", dir)
		}
		return nil, fmt.Errorf("zoo: %w", err)
	}
	raw, rest, err := wal.SplitFrame(data)
	if err != nil {
		return nil, fmt.Errorf("zoo: manifest frame: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("zoo: parsing manifest: %w", err)
	}
	if m.Version != 2 {
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
		// Size the network from the spec and hold the weight frame to it
		// before building anything: the manifest alone must not be able to
		// make Load allocate more than the file backs.
		params, err := me.Arch.ParamCount(t.Channels(), t.Size)
		if err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		var weights []float32
		if weights, rest, err = splitFloats(rest, params); err != nil {
			return nil, fmt.Errorf("zoo: model %d: %s@%s weights: %w", i, me.Arch.ID(), t.ID(), err)
		}
		mod, err := model.New(me.Arch, t, kind, 0)
		if err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		if err := mod.Net.SetWeights(weights); err != nil {
			return nil, fmt.Errorf("zoo: model %d: %w", i, err)
		}
		e := Entry{Model: mod, Thresholds: me.Thresholds}
		if me.HasScores {
			if e.EvalScores, rest, err = splitFloats(rest, len(m.EvalTruth)); err != nil {
				return nil, fmt.Errorf("zoo: model %d scores: %w", i, err)
			}
		}
		r.Entries = append(r.Entries, e)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("zoo: %d bytes after the last frame", len(rest))
	}
	return r, nil
}

// splitFloats takes one frame of n float32s off the front of data, checking
// its length before it allocates.
func splitFloats(data []byte, n int) (vals []float32, rest []byte, err error) {
	blob, rest, err := wal.SplitFrame(data)
	if err == nil && (len(blob)%4 != 0 || len(blob)/4 != n) {
		err = fmt.Errorf("%d-byte frame, want %d float32s", len(blob), n)
	}
	if err != nil {
		return nil, nil, err
	}
	vals = make([]float32, n)
	_, err = binary.Decode(blob, binary.LittleEndian, vals)
	return vals, rest, err
}

// Int8 scoring behind the parity wall. A run with Quantize set scores each
// level over the model's armed int8 path and compares the quantized score
// against the guard band around the level's decision boundaries: a score that
// clears every boundary it is measured against by more than the band would
// decide identically under float32, so the int8 decision stands; anything
// inside the band re-runs float32 for that frame. Emitted labels are
// therefore bit-identical to a float32 run — the representation trade shows
// up only in wall time and in the QuantScored/QuantFallbacks accounting.
//
// The engine's one inner loop scores through scoreLevelBatch, so the trust
// rule — and with it labels and counters — lives in this file alone.
package exec

import (
	"fmt"
	"strings"

	"tahoma/internal/img"
)

// QuantMode selects the scoring representation of a run.
type QuantMode int

const (
	// QuantOff (the zero value) scores every level float32.
	QuantOff QuantMode = iota
	// QuantAuto scores levels whose model carries an armed int8 calibration
	// over the int8 kernels, falling back to float32 per frame whenever the
	// quantized score lands inside the guard band around a decision
	// boundary. Labels are bit-identical to QuantOff.
	QuantAuto
)

// String renders the mode as its flag spelling (off|auto).
func (m QuantMode) String() string {
	if m == QuantAuto {
		return "auto"
	}
	return "off"
}

// ParseQuantMode parses a -quantize flag value.
func ParseQuantMode(s string) (QuantMode, error) {
	switch strings.ToLower(s) {
	case "off":
		return QuantOff, nil
	case "auto", "":
		return QuantAuto, nil
	default:
		return QuantOff, fmt.Errorf("exec: unknown quantization mode %q (off|auto)", s)
	}
}

// QuantStats counts the int8 path's work. Embedded in the per-batch and
// per-run stats.
type QuantStats struct {
	// QuantScored counts (frame, level) scorings decided by the int8 path:
	// the quantized score cleared the guard band and its decision stood.
	QuantScored int `json:"quant_scored"`
	// QuantFallbacks counts (frame, level) scorings whose int8 score landed
	// inside the guard band and were re-scored float32. Fallbacks are not in
	// QuantScored; QuantScored + QuantFallbacks is the int8 kernel's total
	// scoring volume. Each pair still counts once in LevelsRun.
	QuantFallbacks int `json:"quant_fallbacks"`
}

// add folds another stats block in.
func (q *QuantStats) add(o QuantStats) {
	q.QuantScored += o.QuantScored
	q.QuantFallbacks += o.QuantFallbacks
}

// quantLevel reports whether this run scores lv over int8.
func quantLevel(quant bool, lv *Level) bool {
	return quant && lv.Model.Quantized()
}

// quantTrusted reports whether int8 score q decides lv exactly as the
// float32 score f would, given |q−f| ≤ band. Every comparison is strict
// where Decide's is inclusive (and vice versa), so the boundary cases where
// f could sit exactly on a threshold always fall back:
//
//   - q ≥ High+band ⇒ f ≥ High — decided positive either way;
//   - q ≤ Low−band  ⇒ f ≤ Low  — decided negative either way;
//   - Low+band < q < High−band ⇒ Low < f < High — undecided either way;
//   - the last level's 0.5 cutoff needs q strictly outside [0.5−band, 0.5+band].
func quantTrusted(q float32, lv *Level, band float32) bool {
	if lv.Last {
		return q > 0.5+band || q < 0.5-band
	}
	t := lv.Thresholds
	return q >= t.High+band || q <= t.Low-band || (q > t.Low+band && q < t.High-band)
}

// quantScratch is a worker's scratch for guard-band scoring, sized once per
// batch so the steady state allocates nothing.
type quantScratch struct {
	fbIdx  []int        // gather positions that fell inside the guard band
	fbReps []*img.Image // their representations, regathered for the f32 pass
	fbOut  []float32    // their float32 scores
}

func (q *quantScratch) ensure(n int) {
	if cap(q.fbIdx) < n {
		q.fbIdx = make([]int, n)
		q.fbReps = make([]*img.Image, n)
		q.fbOut = make([]float32, n)
	}
}

// scoreLevelBatch scores gather at lv into scores: float32 when the run or
// the model is not quantized, otherwise int8 with per-frame guard-band
// fallback. On return, scores[i] is the score the decision loop must apply
// its usual rules to — a trusted int8 score decides identically to its
// float32 counterpart, and a fallback position holds the float32 score
// itself, so callers need no quantization awareness past this call.
func scoreLevelBatch(lv *Level, gather []*img.Image, scores []float32, qsc *quantScratch, quant bool, st *QuantStats) error {
	if !quantLevel(quant, lv) {
		return lv.Model.ScoreBatchInto(gather, scores)
	}
	if err := lv.Model.ScoreBatchQuantInto(gather, scores); err != nil {
		return err
	}
	band := lv.Model.Quant.GuardBand()
	qsc.ensure(len(gather))
	fb := qsc.fbIdx[:0]
	for i, q := range scores {
		if !quantTrusted(q, lv, band) {
			fb = append(fb, i)
		}
	}
	st.QuantScored += len(gather) - len(fb)
	st.QuantFallbacks += len(fb)
	if len(fb) == 0 {
		return nil
	}
	reps, out := qsc.fbReps[:len(fb)], qsc.fbOut[:len(fb)]
	for t, i := range fb {
		reps[t] = gather[i]
	}
	if err := lv.Model.ScoreBatchInto(reps, out); err != nil {
		return err
	}
	for t, i := range fb {
		scores[i] = out[t]
		reps[t] = nil // don't pin representations between batches
	}
	return nil
}

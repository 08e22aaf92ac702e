// Package noscope implements the NoScope-style video-query baseline the
// paper compares against (Section VII-C), plus TAHOMA+DD — TAHOMA with the
// same difference detector bolted on. NoScope's pipeline per frame is:
//
//  1. a difference detector compares the frame with the last labeled frame
//     and reuses the previous label when they are similar enough;
//  2. a single specialized model labels the frame if its output clears the
//     calibrated confidence thresholds;
//  3. otherwise the expensive reference detector decides (the paper uses
//     YOLOv2; here an oracle with a calibrated fixed cost — see DESIGN.md).
//
// Throughput follows the paper's INFER_ONLY accounting: only detector,
// model and oracle compute time is charged.
package noscope

import (
	"fmt"
	"math/rand"

	"tahoma/internal/cascade"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/synth"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

// DiffDetector reuses the previous frame's label when the mean squared
// difference of downsampled grayscale frames is at most Threshold. A frame's
// signature is the record of its DownSize×DownSize grayscale representation
// (xform.Transform.AppendRecord), so the detector reads the bytes the engine
// derives, and the comparison is integer arithmetic on them.
type DiffDetector struct {
	DownSize  int     // downsample side, e.g. 8
	Threshold float32 // MSE threshold for "same scene", over samples in [0,1]

	limit     uint64 // Threshold as a bound on a sum of squared byte differences
	prev, cur []byte // the reference signature and a scratch one
	prevLabel bool
	prevValid bool
}

// NewDiffDetector builds a detector; downSize ≥ 2 required.
func NewDiffDetector(downSize int, threshold float32) (*DiffDetector, error) {
	if downSize < 2 {
		return nil, fmt.Errorf("noscope: downsample size %d too small", downSize)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("noscope: threshold must be positive, got %v", threshold)
	}
	// A sample is a byte over 255, so an MSE of at most threshold is a sum of
	// squared byte differences of at most threshold·255²·samples.
	limit := uint64(float64(threshold) * 255 * 255 * float64(downSize*downSize))
	return &DiffDetector{DownSize: downSize, Threshold: threshold, limit: limit}, nil
}

// signature appends rec's signature to dst[:0].
func (d *DiffDetector) signature(dst []byte, rec img.Record) []byte {
	return xform.Transform{Size: d.DownSize, Color: img.Gray}.AppendRecord(dst[:0], rec)
}

// Reuse reports whether the frame, as its record, is close enough to the
// last labeled frame to reuse its label. When it is not, callers must label
// the frame and record the result via Update.
func (d *DiffDetector) Reuse(rec img.Record) (bool, bool) {
	if !d.prevValid {
		return false, false
	}
	d.cur = d.signature(d.cur, rec)
	var sum uint64
	for i, v := range d.cur {
		diff := int64(v) - int64(d.prev[i])
		sum += uint64(diff * diff)
	}
	if sum <= d.limit {
		return true, d.prevLabel
	}
	return false, false
}

// Update records a freshly computed label and its frame's record as the new
// reference.
func (d *DiffDetector) Update(rec img.Record, label bool) {
	d.prev = d.signature(d.prev, rec)
	d.prevLabel = label
	d.prevValid = true
}

// Reset forgets the reference frame.
func (d *DiffDetector) Reset() { d.prevValid = false }

// frameReader holds what scoring one frame after another reuses: the frame's
// record, encoded once and read by the detector and every model, and the
// buffers a model's representation is derived into.
type frameReader struct {
	raw, derived []byte
	rep          *img.Image
}

// record encodes frame to its TIMG record, reusing r's buffer.
func (r *frameReader) record(frame *img.Image) (img.Record, error) {
	var err error
	if r.raw, err = img.AppendRecord(r.raw[:0], frame); err != nil {
		return img.Record{}, err
	}
	return img.ParseRecord(r.raw)
}

// score scores m on its representation of rec as the engine derives it
// (xform.Transform.ApplyRecord).
func (r *frameReader) score(m *model.Model, rec img.Record) (float32, error) {
	r.rep, r.derived = m.Xform.ApplyRecord(r.rep, r.derived, rec)
	return m.Score(r.rep)
}

// Costs prices the pipeline components in seconds. The oracle cost is the
// YOLOv2 stand-in: the paper's YOLOv2 ran at ~67 fps, i.e. ~15 ms/frame.
type Costs struct {
	Diff   float64 // one difference-detector comparison
	Oracle float64 // one expensive reference-model invocation
	// InferSecPerMAC and InferOverheadSec price specialized-model and
	// cascade-level inference analytically.
	InferSecPerMAC   float64
	InferOverheadSec float64
}

// DefaultCosts returns the calibrated constants used by the Figure 8
// experiment, aligned with scenario.DefaultParams' inference pricing.
func DefaultCosts() Costs {
	return Costs{
		Diff:             2e-6,
		Oracle:           15e-3,
		InferSecPerMAC:   0.5e-9,
		InferOverheadSec: 3e-6,
	}
}

func (c Costs) inferCost(m *model.Model) float64 {
	return float64(float64(m.MACs())*c.InferSecPerMAC) + c.InferOverheadSec
}

// System is a trained NoScope pipeline for one video predicate.
type System struct {
	Model      *model.Model
	Thresholds thresh.Thresholds
	DD         *DiffDetector
	Costs      Costs
}

// Config controls NoScope training.
type Config struct {
	TargetPrecision float64 // threshold calibration target (paper: 0.95)
	TrainN          int     // balanced training examples drawn from the head segment
	ConfigN         int     // calibration examples
	Seed            int64
	DDDownSize      int
	DDThreshold     float32
	Costs           Costs
}

// DefaultConfig mirrors the paper's NoScope settings at this corpus scale.
func DefaultConfig() Config {
	return Config{
		TargetPrecision: 0.95,
		TrainN:          160,
		ConfigN:         80,
		Seed:            1,
		DDDownSize:      8,
		DDThreshold:     0.0004,
		Costs:           DefaultCosts(),
	}
}

// BalancedDataset draws a label-balanced sample (with replacement when one
// class is scarce) from frames — how NoScope's specialized models are fit on
// skewed video streams.
func BalancedDataset(frames []synth.Frame, n int, seed int64) (synth.Dataset, error) {
	var pos, neg []int
	for i, f := range frames {
		if f.Label {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return synth.Dataset{}, fmt.Errorf("noscope: head segment has %d positives and %d negatives; need both",
			len(pos), len(neg))
	}
	rng := rand.New(rand.NewSource(seed))
	ds := synth.Dataset{Examples: make([]synth.Example, 0, n)}
	for i := 0; i < n; i++ {
		var idx int
		if i%2 == 0 {
			idx = pos[rng.Intn(len(pos))]
		} else {
			idx = neg[rng.Intn(len(neg))]
		}
		ds.Examples = append(ds.Examples, synth.Example{Image: frames[idx].Image, Label: frames[idx].Label})
	}
	return ds, nil
}

// Result summarizes one evaluation run over a frame sequence.
type Result struct {
	Frames     int
	Accuracy   float64 // agreement with ground truth
	Throughput float64 // frames/sec under the Costs accounting
	ReusedFrac float64 // frames answered by the difference detector
	OracleFrac float64 // frames that fell through to the oracle
}

// SkipFrames applies the paper's basic frame skipping ("only processing one
// of every 30 frames"): it returns every rate-th frame. Reported results
// then cover only the actively processed frames, matching Section VII-C's
// accounting. rate <= 1 returns the input unchanged.
func SkipFrames(frames []synth.Frame, rate int) []synth.Frame {
	if rate <= 1 {
		return frames
	}
	out := make([]synth.Frame, 0, (len(frames)+rate-1)/rate)
	for i := 0; i < len(frames); i += rate {
		out = append(out, frames[i])
	}
	return out
}

// Run executes the NoScope pipeline over frames: the specialized model, and
// the oracle for every frame its thresholds leave undecided.
func (s *System) Run(frames []synth.Frame) (Result, error) {
	return run([]exec.Level{{Model: s.Model, Thresholds: s.Thresholds}, {}}, s.DD, s.Costs, frames)
}

// RunTahomaDD executes a TAHOMA cascade behind the same difference detector
// (the paper's TAHOMA+DD). Levels price analytically via Costs; a level
// holding the deep reference model is priced as the oracle.
func RunTahomaDD(rt *cascade.Runtime, dd *DiffDetector, costs Costs, frames []synth.Frame) (Result, error) {
	return run(rt.Levels, dd, costs, frames)
}

// run executes levels behind dd over frames: each frame the detector does not
// reuse is labeled by the levels in order until one decides. A level with no
// model, or with the deep model, is the oracle — YOLOv2's role: oracle cost,
// and ground truth as its answer (the reference model is treated as golden,
// as in the NoScope evaluation).
func run(levels []exec.Level, dd *DiffDetector, costs Costs, frames []synth.Frame) (Result, error) {
	if len(frames) == 0 {
		return Result{}, fmt.Errorf("noscope: no frames")
	}
	dd.Reset()
	var r frameReader
	var cost float64
	correct, reused, oracled := 0, 0, 0
	for _, f := range frames {
		rec, err := r.record(f.Image)
		if err != nil {
			return Result{}, err
		}
		cost += costs.Diff
		reuse, label := dd.Reuse(rec)
		if reuse {
			reused++
		} else {
			decided := false
			for _, lv := range levels {
				if lv.Model == nil || lv.Model.Kind == model.Deep {
					cost += costs.Oracle
					oracled++
					label, decided = f.Label, true
					break
				}
				cost += costs.inferCost(lv.Model)
				score, err := r.score(lv.Model, rec)
				if err != nil {
					return Result{}, err
				}
				if lv.Last {
					label, decided = score >= 0.5, true
				} else {
					decided, label = lv.Thresholds.Decide(score)
				}
				if decided {
					break
				}
			}
			if !decided {
				return Result{}, fmt.Errorf("noscope: cascade did not decide")
			}
			dd.Update(rec, label)
		}
		if label == f.Label {
			correct++
		}
	}
	n := len(frames)
	return Result{
		Frames:     n,
		Accuracy:   float64(correct) / float64(n),
		Throughput: float64(n) / cost,
		ReusedFrac: float64(reused) / float64(n),
		OracleFrac: float64(oracled) / float64(n),
	}, nil
}

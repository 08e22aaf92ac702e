package noscope

import (
	"bytes"
	"context"
	"testing"

	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
)

// frameRecord is frame's TIMG record, as Run and RunTahomaDD encode it.
func frameRecord(t *testing.T, frame *img.Image) img.Record {
	t.Helper()
	raw, err := img.AppendRecord(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := img.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestDiffDetectorBasics(t *testing.T) {
	if _, err := NewDiffDetector(1, 0.01); err == nil {
		t.Fatal("tiny downsize must error")
	}
	if _, err := NewDiffDetector(8, 0); err == nil {
		t.Fatal("zero threshold must error")
	}
	dd, err := NewDiffDetector(8, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := synth.GenerateStream(synth.ReefStream(32, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	rec := frameRecord(t, frames[0].Image)
	// No reference yet.
	if ok, _ := dd.Reuse(rec); ok {
		t.Fatal("reuse before any update")
	}
	dd.Update(rec, true)
	// The same frame must be reusable with the recorded label.
	ok, label := dd.Reuse(rec)
	if !ok || !label {
		t.Fatal("identical frame not reused")
	}
	// A very different frame (inverted) must not be reused.
	inv := frames[0].Image.Clone()
	for i := range inv.Pix {
		inv.Pix[i] = 1 - inv.Pix[i]
	}
	if ok, _ := dd.Reuse(frameRecord(t, inv)); ok {
		t.Fatal("wildly different frame reused")
	}
	dd.Reset()
	if ok, _ := dd.Reuse(rec); ok {
		t.Fatal("reuse after reset")
	}
}

// TestDiffDetectorSignatureIsGrayRecord: the detector's signature is the
// record of the frame's DownSize×DownSize grayscale representation, the
// bytes the engine derives. An identical frame is reused, even at the
// smallest threshold, and an inverted one is not, even at a generous one.
func TestDiffDetectorSignatureIsGrayRecord(t *testing.T) {
	frames, err := synth.GenerateStream(synth.JunctionStream(24, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	rec := frameRecord(t, frames[0].Image)
	inv := frames[0].Image.Clone()
	for i := range inv.Pix {
		inv.Pix[i] = 1 - inv.Pix[i]
	}
	for _, threshold := range []float32{1e-9, 0.05} {
		dd, err := NewDiffDetector(6, threshold)
		if err != nil {
			t.Fatal(err)
		}
		want := xform.Transform{Size: 6, Color: img.Gray}.AppendRecord(nil, rec)
		if got := dd.signature(nil, rec); !bytes.Equal(got, want) {
			t.Fatalf("signature %v, the gray record %v", got, want)
		}
		dd.Update(rec, true)
		if ok, label := dd.Reuse(frameRecord(t, frames[0].Image.Clone())); !ok || !label {
			t.Fatalf("threshold %v: identical frame not reused", threshold)
		}
		if ok, _ := dd.Reuse(frameRecord(t, inv)); ok {
			t.Fatalf("threshold %v: inverted frame reused", threshold)
		}
	}
}

func TestBalancedDataset(t *testing.T) {
	frames, err := synth.GenerateStream(synth.JunctionStream(24, 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BalancedDataset(frames, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 40 || ds.Positives() != 20 {
		t.Fatalf("balanced dataset %d/%d", ds.Len(), ds.Positives())
	}
	// All-negative input must error.
	var neg []synth.Frame
	for _, f := range frames {
		if !f.Label {
			neg = append(neg, f)
		}
	}
	if _, err := BalancedDataset(neg, 10, 1); err == nil {
		t.Fatal("single-class input must error")
	}
}

func TestTrainAndRunNoScope(t *testing.T) {
	frames, err := synth.GenerateStream(synth.JunctionStream(24, 500, 9))
	if err != nil {
		t.Fatal(err)
	}
	head, tail := frames[:300], frames[300:]
	cfg := DefaultConfig()
	cfg.TrainN, cfg.ConfigN = 80, 40
	sys, err := Train(head, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(tail)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != len(tail) {
		t.Fatalf("frames %d", res.Frames)
	}
	if res.Accuracy < 0.6 {
		t.Fatalf("noscope accuracy %.3f too low — specialized model failed", res.Accuracy)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput must be positive")
	}
	if res.ReusedFrac < 0 || res.ReusedFrac > 1 || res.OracleFrac < 0 || res.OracleFrac > 1 {
		t.Fatalf("fractions out of range: %+v", res)
	}
	if _, err := sys.Run(nil); err == nil {
		t.Fatal("empty run must error")
	}
}

func TestReefReusesMoreThanJunction(t *testing.T) {
	run := func(opts synth.StreamOptions) Result {
		frames, err := synth.GenerateStream(opts)
		if err != nil {
			t.Fatal(err)
		}
		head, tail := frames[:300], frames[300:]
		cfg := DefaultConfig()
		cfg.TrainN, cfg.ConfigN = 60, 30
		sys, err := Train(head, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tail)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reef := run(synth.ReefStream(24, 600, 17))
	junction := run(synth.JunctionStream(24, 600, 17))
	if reef.ReusedFrac <= junction.ReusedFrac {
		t.Fatalf("reef reuse %.2f should exceed junction reuse %.2f",
			reef.ReusedFrac, junction.ReusedFrac)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Fatal("empty head must error")
	}
	frames, _ := synth.GenerateStream(synth.JunctionStream(24, 50, 3))
	cfg := DefaultConfig()
	cfg.TargetPrecision = 1.5
	if _, err := Train(frames, cfg); err == nil {
		t.Fatal("bad precision must error")
	}
}

func TestSplitsFromFrames(t *testing.T) {
	frames, err := synth.GenerateStream(synth.JunctionStream(24, 300, 21))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SplitsFromFrames(frames, 40, 20, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.Len() != 40 || sp.Config.Len() != 20 || sp.Eval.Len() != 20 {
		t.Fatal("split sizes wrong")
	}
	if sp.Train.Positives() != 20 {
		t.Fatal("train split not balanced")
	}
}

func TestSkipFrames(t *testing.T) {
	frames, err := synth.GenerateStream(synth.ReefStream(16, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := SkipFrames(frames, 1); len(got) != 10 {
		t.Fatalf("rate 1 should be identity, got %d", len(got))
	}
	got := SkipFrames(frames, 3)
	if len(got) != 4 { // frames 0, 3, 6, 9
		t.Fatalf("rate 3 kept %d frames, want 4", len(got))
	}
	for i, f := range got {
		if f.Image != frames[i*3].Image {
			t.Fatalf("frame %d is not the %d-th original", i, i*3)
		}
	}
	if got := SkipFrames(nil, 5); len(got) != 0 {
		t.Fatal("empty input should stay empty")
	}
}

func TestRunTahomaDD(t *testing.T) {
	frames, err := synth.GenerateStream(synth.JunctionStream(24, 400, 33))
	if err != nil {
		t.Fatal(err)
	}
	head, tail := frames[:250], frames[250:]
	splits, err := SplitsFromFrames(head, 80, 40, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.TinyConfig()
	sys, err := core.Initialize("video", splits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A two-level cascade: a thresholded small model, then the deep model
	// (which RunTahomaDD treats as the oracle).
	spec := cascade.Spec{Depth: 2, L: [cascade.MaxLevels]cascade.LevelRef{
		{Model: 0, Thresh: 0},
		{Model: int32(sys.DeepIdx), Thresh: cascade.Final},
	}}
	rt, err := sys.Runtime(spec)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := NewDiffDetector(8, 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTahomaDD(rt, dd, DefaultCosts(), tail)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != len(tail) || res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Frames reaching the deep level get oracle (ground-truth) answers, so
	// overall accuracy must beat chance comfortably.
	if res.Accuracy < 0.6 {
		t.Fatalf("accuracy %.3f too low", res.Accuracy)
	}
	if res.OracleFrac < 0 || res.OracleFrac > 1 {
		t.Fatalf("oracle fraction %v out of range", res.OracleFrac)
	}
	// Empty input errors.
	if _, err := RunTahomaDD(rt, dd, DefaultCosts(), nil); err == nil {
		t.Fatal("empty frames must error")
	}

	// A single-level cascade of a basic model never consults the oracle.
	solo := cascade.Spec{Depth: 1, L: [cascade.MaxLevels]cascade.LevelRef{
		{Model: 0, Thresh: cascade.Final}}}
	rtSolo, err := sys.Runtime(solo)
	if err != nil {
		t.Fatal(err)
	}
	dd2, _ := NewDiffDetector(8, 0.0004)
	resSolo, err := RunTahomaDD(rtSolo, dd2, DefaultCosts(), tail)
	if err != nil {
		t.Fatal(err)
	}
	if resSolo.OracleFrac != 0 {
		t.Fatalf("single basic-model cascade used the oracle: %v", resSolo.OracleFrac)
	}
	if resSolo.Throughput <= res.Throughput {
		t.Fatal("oracle-free cascade should be faster than the deep-terminated one")
	}
}

// TestRunTahomaDDReadsWhatTheEngineReads: with a threshold that reuses no
// frame and a cascade without the deep level, RunTahomaDD labels each frame
// as the engine does, so its accuracy equals that of the same runtime's
// ClassifyBatchContext labels over the same frames. Each basic model ends a
// two-level cascade behind model 0's thresholds; the tiny models label most
// of these frames one way, so taking every one of them is what makes some
// cascades' labels mixed.
func TestRunTahomaDDReadsWhatTheEngineReads(t *testing.T) {
	frames, err := synth.GenerateStream(synth.JunctionStream(24, 300, 41))
	if err != nil {
		t.Fatal(err)
	}
	head, tail := frames[:200], frames[200:]
	splits, err := SplitsFromFrames(head, 80, 40, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Initialize("video", splits, core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]*img.Image, len(tail))
	for i, f := range tail {
		srcs[i] = f.Image
	}
	for last, m := range sys.Models {
		if last == sys.DeepIdx {
			continue
		}
		t.Run(m.ID(), func(t *testing.T) {
			rt, err := sys.Runtime(cascade.Spec{Depth: 2, L: [cascade.MaxLevels]cascade.LevelRef{
				{Model: 0, Thresh: 0},
				{Model: int32(last), Thresh: cascade.Final},
			}})
			if err != nil {
				t.Fatal(err)
			}
			dd, err := NewDiffDetector(8, 1e-9)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunTahomaDD(rt, dd, DefaultCosts(), tail)
			if err != nil {
				t.Fatal(err)
			}
			if res.ReusedFrac != 0 || res.OracleFrac != 0 {
				t.Fatalf("reused %v, oracle %v: want every frame labeled by the cascade", res.ReusedFrac, res.OracleFrac)
			}
			rep, err := rt.ClassifyBatchContext(context.Background(), srcs, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			correct := 0
			for i, f := range tail {
				if rep.Labels[i] == f.Label {
					correct++
				}
			}
			if want := float64(correct) / float64(len(tail)); res.Accuracy != want {
				t.Fatalf("RunTahomaDD accuracy %v, the engine's labels %v", res.Accuracy, want)
			}
		})
	}
}

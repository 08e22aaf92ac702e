package vdb

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

// TestCompatShimsInert: the shims left for the frozen harness keep it
// compiling and do nothing else. The removed cross-query cache keeps its
// capacity check, and "installing" it publishes no new read state. The
// removed int8 path's shims change nothing either: SetQuantization publishes
// no state, Options.Quantize does not move a run's labels or report, no
// model reports itself quantized, and ScoreBatchQuantInto scores exactly what
// ScoreBatchInto does.
func TestCompatShimsInert(t *testing.T) {
	if _, err := NewSharedRepCache(0); err == nil {
		t.Fatal("non-positive capacity accepted")
	}
	rc, err := NewSharedRepCache(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	db := New(nil)
	before := db.state.Load()
	db.SetRepCache(rc)
	if db.state.Load() != before {
		t.Fatal("SetRepCache changed the read state")
	}
	for _, m := range []exec.QuantMode{exec.QuantOff, exec.QuantAuto} {
		db.SetQuantization(m)
		if db.state.Load() != before {
			t.Fatalf("SetQuantization(%d) changed the read state", m)
		}
	}

	gray := xform.Transform{Size: 8, Color: img.Gray}
	rgb := xform.Transform{Size: 16, Color: img.RGB}
	m0, err := model.New(arch.Spec{ConvLayers: 0, DenseWidth: 16, Kernel: 3}, gray, model.Basic, 1)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := model.New(arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3}, rgb, model.Basic, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	frames := make([]*img.Image, 40)
	for i := range frames {
		frames[i] = img.New(32, 32, img.RGB)
		for p := range frames[i].Pix {
			frames[i].Pix[p] = rng.Float32()
		}
	}

	var cut []float32 // m0's scores, sorted: the thresholds leave half undecided
	for _, m := range []*model.Model{m0, m1} {
		if m.Quantized() {
			t.Fatalf("%s reports an int8 path", m.ID())
		}
		reps := make([]*img.Image, len(frames))
		for i, f := range frames {
			reps[i] = m.Xform.Apply(f)
		}
		want, got := make([]float32, len(reps)), make([]float32, len(reps))
		if err := m.ScoreBatchInto(reps, want); err != nil {
			t.Fatal(err)
		}
		if err := m.ScoreBatchQuantInto(reps, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s rep %d: ScoreBatchQuantInto %v, ScoreBatchInto %v", m.ID(), i, got[i], want[i])
			}
		}
		if cut == nil {
			cut = append(cut, want...)
			slices.Sort(cut)
		}
	}

	eng, err := exec.New([]exec.Level{
		{Model: m0, Thresholds: thresh.Thresholds{Low: cut[len(cut)/4], High: cut[3*len(cut)/4]}},
		{Model: m1, Last: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts exec.Options) *exec.Report {
		t.Helper()
		rep, err := eng.Run(exec.Frames(frames), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep.Wall, rep.Throughput = 0, 0
		for b := range rep.Batches {
			rep.Batches[b].Wall = 0
		}
		return rep
	}
	plain := run(exec.Options{})
	if plain.LevelsRun[0] <= len(frames) {
		t.Fatalf("LevelsRun %d over %d frames: the second level never ran", plain.LevelsRun[0], len(frames))
	}
	if auto := run(exec.Options{Quantize: exec.QuantAuto}); !reflect.DeepEqual(auto, plain) {
		t.Fatalf("Quantize: QuantAuto report %+v, zero Options %+v", auto, plain)
	}
}

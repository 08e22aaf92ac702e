package cascade

import (
	"math/rand"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/thresh"
)

func randSource(rng *rand.Rand, size int) *img.Image {
	im := img.New(size, size, img.RGB)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

func TestRuntimeClassifyMatchesManualWalk(t *testing.T) {
	f := newFixture(t, 61, 4, 2, 8) // real (untrained) models
	// Wide uncertain bands so multi-level execution actually happens.
	for m := range f.ths {
		f.ths[m][0] = thresh.Thresholds{Low: 0.49, High: 0.51}
		f.ths[m][1] = thresh.Thresholds{Low: 0.2, High: 0.8}
	}
	spec := Spec{Depth: 3, L: [MaxLevels]LevelRef{
		{Model: 0, Thresh: 1}, {Model: 1, Thresh: 0}, {Model: 2, Thresh: Final}}}
	rt, err := NewRuntime(spec, f.models, f.ths)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 30; trial++ {
		src := randSource(rng, 32)
		got, tr, err := rt.Classify(src)
		if err != nil {
			t.Fatal(err)
		}
		// Manual walk with the same semantics, each level scoring its
		// representation derived from the frame's record.
		raw, err := img.AppendRecord(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := img.ParseRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		var want bool
		levels := 0
		for k, ref := range []LevelRef{spec.L[0], spec.L[1], spec.L[2]} {
			m := f.models[ref.Model]
			rep, _ := m.Xform.ApplyRecord(nil, nil, rec)
			score, err := m.Score(rep)
			if err != nil {
				t.Fatal(err)
			}
			if k < len(tr.Scores) && tr.Scores[k] != score {
				t.Fatalf("trial %d level %d: Classify scored %v, manual walk %v", trial, k, tr.Scores[k], score)
			}
			levels++
			if k == 2 {
				want = score >= 0.5
				break
			}
			if decided, positive := f.ths[ref.Model][ref.Thresh].Decide(score); decided {
				want = positive
				break
			}
		}
		if got != want {
			t.Fatalf("trial %d: Classify = %v, manual walk = %v", trial, got, want)
		}
		if tr.LevelsRun != levels {
			t.Fatalf("trial %d: trace ran %d levels, want %d", trial, tr.LevelsRun, levels)
		}
		if len(tr.Scores) != levels {
			t.Fatalf("trial %d: %d scores for %d levels", trial, len(tr.Scores), levels)
		}
	}
}

func TestRuntimeRepDedupInTrace(t *testing.T) {
	f := newFixture(t, 63, 4, 2, 8)
	// Never-deciding thresholds force all levels to run. Models 0 and 1
	// share no transform; model 0 twice shares one.
	for m := range f.ths {
		f.ths[m][0] = thresh.Thresholds{Low: -1, High: 2}
	}
	spec := Spec{Depth: 3, L: [MaxLevels]LevelRef{
		{Model: 0, Thresh: 0}, {Model: 0, Thresh: 0}, {Model: 0, Thresh: Final}}}
	rt, err := NewRuntime(spec, f.models, f.ths)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	_, tr, err := rt.Classify(randSource(rng, 32))
	if err != nil {
		t.Fatal(err)
	}
	if tr.LevelsRun != 3 {
		t.Fatalf("ran %d levels, want 3", tr.LevelsRun)
	}
	if len(tr.RepsCreated) != 1 {
		t.Fatalf("created %d representations, want 1 (shared transform)", len(tr.RepsCreated))
	}

	mixed := Spec{Depth: 2, L: [MaxLevels]LevelRef{
		{Model: 0, Thresh: 0}, {Model: 1, Thresh: Final}}}
	rt2, err := NewRuntime(mixed, f.models, f.ths)
	if err != nil {
		t.Fatal(err)
	}
	_, tr2, err := rt2.Classify(randSource(rng, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.RepsCreated) != 2 {
		t.Fatalf("created %d representations, want 2 (distinct transforms)", len(tr2.RepsCreated))
	}
}

func TestRuntimeErrors(t *testing.T) {
	f := newFixture(t, 65, 2, 1, 8)
	// Spec referencing a bad model index.
	bad := Spec{Depth: 1, L: [MaxLevels]LevelRef{{Model: 9, Thresh: Final}}}
	if _, err := NewRuntime(bad, f.models, f.ths); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
	// Empty runtime refuses to classify.
	empty := &Runtime{}
	if _, _, err := empty.Classify(img.New(8, 8, img.RGB)); err == nil {
		t.Fatal("empty runtime must error")
	}
}

func TestSpecLevelsAndDescribe(t *testing.T) {
	f := newFixture(t, 68, 2, 1, 8)
	s := Spec{Depth: 2, L: [MaxLevels]LevelRef{{Model: 0, Thresh: 0}, {Model: 1, Thresh: Final}}}
	if got := s.Levels(); len(got) != 2 || got[0].Model != 0 || got[1].Thresh != Final {
		t.Fatalf("Levels = %+v", got)
	}
	desc := s.Describe(f.models)
	if desc == "" || desc == s.ID() {
		t.Fatalf("Describe = %q", desc)
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	f := newFixture(t, 69, 3, 2, 50)
	if f.ev.N() != 50 || f.ev.NumThresh() != 2 {
		t.Fatal("N/NumThresh wrong")
	}
	if len(f.ev.Models()) != 3 || len(f.ev.Thresholds()) != 3 {
		t.Fatal("Models/Thresholds accessors wrong")
	}
}

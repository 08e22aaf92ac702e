package thresh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecide(t *testing.T) {
	th := Thresholds{Low: 0.2, High: 0.8}
	cases := []struct {
		score    float32
		decided  bool
		positive bool
	}{
		{0.9, true, true},
		{0.8, true, true},
		{0.5, false, false},
		{0.2, true, false},
		{0.1, true, false},
	}
	for _, c := range cases {
		d, p := th.Decide(c.score)
		if d != c.decided || p != c.positive {
			t.Errorf("Decide(%v) = (%v,%v), want (%v,%v)", c.score, d, p, c.decided, c.positive)
		}
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil, nil, 0.9, 100); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := Calibrate([]float32{0.5}, []bool{true, false}, 0.9, 100); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Calibrate([]float32{0.5}, []bool{true}, 1.5, 100); err == nil {
		t.Fatal("bad target must error")
	}
}

func TestCalibratePerfectSeparation(t *testing.T) {
	// Scores perfectly separate: positives >= 0.8, negatives <= 0.3.
	scores := []float32{0.9, 0.85, 0.8, 0.3, 0.2, 0.1}
	labels := []bool{true, true, true, false, false, false}
	th, err := Calibrate(scores, labels, 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Every example should be decided confidently and correctly.
	if got := th.Coverage(scores); got != 1 {
		t.Fatalf("coverage = %v, want 1 (thresholds %+v)", got, th)
	}
	for i, s := range scores {
		d, p := th.Decide(s)
		if !d || p != labels[i] {
			t.Fatalf("score %v decided=(%v,%v), want (true,%v)", s, d, p, labels[i])
		}
	}
}

func TestCalibrateUnattainableTarget(t *testing.T) {
	// Labels are anti-correlated with scores: no threshold can reach 0.99
	// precision on either side.
	scores := []float32{0.9, 0.8, 0.7, 0.3, 0.2, 0.1}
	labels := []bool{false, false, false, true, true, true}
	th, err := Calibrate(scores, labels, 0.99, 100)
	if err != nil {
		t.Fatal(err)
	}
	if th.Coverage(scores) != 0 {
		t.Fatalf("unattainable target should decide nothing, got coverage %v (th=%+v)",
			th.Coverage(scores), th)
	}
}

// confusion counts confident decisions against the labels.
type confusion struct{ TP, FP, TN, FN int }

// precision is TP/(TP+FP) on the positive side.
func (c confusion) precision() float64 { return float64(c.TP) / float64(c.TP+c.FP) }

// npv is TN/(TN+FN), the precision of the negative side.
func (c confusion) npv() float64 { return float64(c.TN) / float64(c.TN+c.FN) }

// precisionOn counts th's confident decisions on (scores, labels): positive
// decisions in pos, negative ones in neg.
func precisionOn(th Thresholds, scores []float32, labels []bool) (pos, neg confusion) {
	for i, s := range scores {
		d, p := th.Decide(s)
		switch {
		case !d:
		case p && labels[i]:
			pos.TP++
		case p:
			pos.FP++
		case !labels[i]:
			neg.TN++
		default:
			neg.FN++
		}
	}
	return pos, neg
}

// TestCalibrateMeetsTargetOnConfigSet: the defining guarantee — confident
// decisions on the calibration data meet the precision target on both sides.
func TestCalibrateMeetsTargetOnConfigSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		scores := make([]float32, n)
		labels := make([]bool, n)
		for i := range scores {
			labels[i] = rng.Intn(2) == 0
			// Noisy but informative scores.
			base := 0.3
			if labels[i] {
				base = 0.7
			}
			scores[i] = float32(base) + 0.4*(rng.Float32()-0.5)
		}
		target := 0.85 + 0.14*rng.Float64()
		th, err := Calibrate(scores, labels, target, 100)
		if err != nil {
			return false
		}
		pos, neg := precisionOn(th, scores, labels)
		if pos.TP+pos.FP > 0 && pos.precision() < target-1e-9 {
			return false
		}
		if neg.TN+neg.FN > 0 && neg.npv() < target-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrateMaximizesCoverage compares against brute force over the same
// candidate grid: no valid (low, high) pair on the grid should cover more.
func TestCalibrateMaximizesCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const steps = 20
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(60)
		scores := make([]float32, n)
		labels := make([]bool, n)
		for i := range scores {
			labels[i] = rng.Intn(2) == 0
			base := 0.25
			if labels[i] {
				base = 0.75
			}
			scores[i] = float32(base) + 0.5*(rng.Float32()-0.5)
		}
		target := 0.9
		th, err := Calibrate(scores, labels, target, steps)
		if err != nil {
			t.Fatal(err)
		}
		got := th.Coverage(scores)

		// Brute force: independently best high and best low on the grid.
		best := 0.0
		for hs := 0; hs <= steps; hs++ {
			for ls := 0; ls <= steps; ls++ {
				cand := Thresholds{Low: float32(ls) / steps, High: float32(hs) / steps}
				if cand.Low >= cand.High {
					continue
				}
				pos, neg := precisionOn(cand, scores, labels)
				if pos.TP+pos.FP > 0 && pos.precision() < target {
					continue
				}
				if neg.TN+neg.FN > 0 && neg.npv() < target {
					continue
				}
				if c := cand.Coverage(scores); c > best {
					best = c
				}
			}
		}
		if got < best-1e-9 {
			t.Fatalf("trial %d: calibrated coverage %.3f < brute force %.3f (th=%+v)",
				trial, got, best, th)
		}
	}
}

func TestCalibrateAll(t *testing.T) {
	scores := []float32{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	targets := []float64{0.9, 0.95, 0.99}
	ths, err := CalibrateAll(scores, labels, targets, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ths) != 3 {
		t.Fatalf("got %d threshold sets", len(ths))
	}
	for i, th := range ths {
		if th.Target != targets[i] {
			t.Fatalf("target %v recorded as %v", targets[i], th.Target)
		}
	}
}

func TestCoverageEmpty(t *testing.T) {
	if (Thresholds{Low: 0.2, High: 0.8}).Coverage(nil) != 0 {
		t.Fatal("empty coverage should be 0")
	}
}

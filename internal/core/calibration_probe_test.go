package core

// Calibration probe: not a regression test but a gate on the empirical
// properties every experiment depends on — that the design space actually
// produces an accuracy/cost spread. Run explicitly:
//
//	go test ./internal/core -run TestCalibrationProbe -calibrate -v

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"tahoma/internal/synth"
	"tahoma/internal/train"
)

var calibrate = flag.Bool("calibrate", false, "run the slow calibration probe")

func TestCalibrationProbe(t *testing.T) {
	if !*calibrate {
		t.Skip("calibration probe disabled (pass -calibrate)")
	}
	cats := synth.Categories()
	for _, cat := range []synth.Category{cats[4] /*fence*/, cats[3] /*coho*/, cats[6] /*komondor*/} {
		splits, err := synth.GenerateBinary(cat, synth.Options{
			BaseSize: 64, TrainN: 200, ConfigN: 100, EvalN: 200, Seed: 42, Augment: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		start := time.Now()
		models, deepIdx, err := BuildModels(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d models (deep=%d)", cat.Name, len(models), deepIdx)
		if _, err := train.All(trainJobs(cfg, models, deepIdx), splits.Train, 0); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: trained in %v", cat.Name, time.Since(start))
		truth := train.Labels(splits.Eval)
		for _, m := range models {
			scores := train.Scores(m, splits.Eval)
			correct := 0
			for i, s := range scores {
				if (s >= 0.5) == truth[i] {
					correct++
				}
			}
			fmt.Printf("%-10s %-22s acc=%.3f macs=%d\n",
				cat.Name, m.ID(), float64(correct)/float64(len(truth)), m.MACs())
		}
	}
}

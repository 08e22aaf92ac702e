package synth

import (
	"fmt"
	"math/rand"

	"tahoma/internal/img"
)

// Example is one labeled image: Label is true when the image contains the
// target category's object (the contains_object ground truth).
type Example struct {
	Image *img.Image
	Label bool
}

// Dataset is an ordered list of labeled examples.
type Dataset struct {
	Examples []Example
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.Examples) }

// Positives returns the number of positive examples.
func (d Dataset) Positives() int {
	n := 0
	for _, e := range d.Examples {
		if e.Label {
			n++
		}
	}
	return n
}

// Splits holds the three disjoint labeled sets TAHOMA initialization needs:
// Train for model fitting, Config for decision-threshold calibration, and
// Eval for cascade accuracy/throughput measurement (Section V-A).
type Splits struct {
	Train  Dataset
	Config Dataset
	Eval   Dataset
}

// Options controls binary-corpus generation.
type Options struct {
	BaseSize       int     // full-resolution image side (default 64)
	TrainN         int     // examples in the training split (before augmentation)
	ConfigN        int     // examples in the configuration split
	EvalN          int     // examples in the evaluation split
	Seed           int64   // master seed; all content derives from it
	Noise          float32 // sensor-noise amplitude (default 0.06)
	MaxDistractors int     // max non-target objects per image (default 2)
	Augment        bool    // add left-right flipped copies to the train split
}

func (o *Options) setDefaults() {
	if o.BaseSize == 0 {
		o.BaseSize = 64
	}
	if o.Noise == 0 {
		o.Noise = 0.06
	}
	if o.MaxDistractors == 0 {
		o.MaxDistractors = 2
	}
}

// GenerateBinary builds the three splits for one binary predicate
// (contains_object(target)). Each split is balanced: half positives, half
// negatives. Negatives always contain at least one distractor object from
// another category, so models must learn the target's signature rather than
// "any object present".
func GenerateBinary(target Category, opts Options) (Splits, error) {
	opts.setDefaults()
	if opts.TrainN <= 1 || opts.ConfigN <= 1 || opts.EvalN <= 1 {
		return Splits{}, fmt.Errorf("synth: split sizes must each be >= 2, got train=%d config=%d eval=%d",
			opts.TrainN, opts.ConfigN, opts.EvalN)
	}
	others := distractorsFor(target)
	if len(others) == 0 {
		return Splits{}, fmt.Errorf("synth: no distractor categories available for %q", target.Name)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	gen := func(n int) Dataset {
		ds := Dataset{Examples: make([]Example, 0, n)}
		for i := 0; i < n; i++ {
			label := i%2 == 0
			im := renderExample(rng, target, others, label, opts)
			ds.Examples = append(ds.Examples, Example{Image: im, Label: label})
		}
		return ds
	}
	sp := Splits{Train: gen(opts.TrainN), Config: gen(opts.ConfigN), Eval: gen(opts.EvalN)}
	if opts.Augment {
		aug := make([]Example, 0, 2*len(sp.Train.Examples))
		aug = append(aug, sp.Train.Examples...)
		for _, e := range sp.Train.Examples {
			aug = append(aug, Example{Image: img.FlipH(e.Image), Label: e.Label})
		}
		sp.Train.Examples = aug
	}
	return sp, nil
}

func distractorsFor(target Category) []Category {
	var others []Category
	for _, c := range Categories() {
		if c.Name != target.Name {
			others = append(others, c)
		}
	}
	return others
}

// renderExample draws one scene. Positives contain the target object plus
// 0..MaxDistractors others; negatives contain 1..MaxDistractors others.
func renderExample(rng *rand.Rand, target Category, others []Category, positive bool, opts Options) *img.Image {
	cv := newCanvas(opts.BaseSize)
	cv.fillBackground(rng, opts.Noise)
	size := float32(opts.BaseSize)
	placeAndDraw := func(cat Category) {
		scale := size * (0.14 + float32(0.1*rng.Float32())) // object radius: 14%-24% of the frame
		margin := float32(scale * 1.6)
		cx := margin + float32(rng.Float32()*(size-float32(2*margin)))
		cy := margin + float32(rng.Float32()*(size-float32(2*margin)))
		cat.draw(rng, cv, cx, cy, scale)
	}
	nDistract := rng.Intn(opts.MaxDistractors + 1)
	if !positive && nDistract == 0 {
		nDistract = 1
	}
	for i := 0; i < nDistract; i++ {
		placeAndDraw(others[rng.Intn(len(others))])
	}
	if positive {
		placeAndDraw(target)
	}
	cv.addNoise(rng, opts.Noise*0.5)
	return cv.im.Clamp()
}

package synth

import (
	"fmt"
	"math"
	"math/rand"

	"tahoma/internal/img"
)

// Frame is one labeled video frame.
type Frame struct {
	Image *img.Image
	Label bool // true when the target object is visible in this frame
}

// StreamOptions controls synthetic video generation. The two presets —
// ReefStream and JunctionStream — are the analogues of NoScope's coral and
// jackson datasets: a mostly-static scene with rare targets versus a busy
// scene with frequent targets and motion.
type StreamOptions struct {
	Size            int   // frame side in pixels
	Frames          int   // number of frames to generate
	Seed            int64 // master seed
	Target          Category
	Distractors     []Category
	TargetEnterProb float64 // per-frame probability an absent target enters
	TargetLeaveProb float64 // per-frame probability a present target leaves
	NumDistractors  int     // moving distractor objects in the scene
	Speed           float32 // object speed in pixels/frame
	Noise           float32 // per-frame sensor noise amplitude
}

// ReefStream returns the low-motion, rare-target preset ("coral" analogue):
// nearly static frames, so a difference detector can reuse most results.
func ReefStream(size, frames int, seed int64) StreamOptions {
	cats := Categories()
	return StreamOptions{
		Size:            size,
		Frames:          frames,
		Seed:            seed,
		Target:          cats[3], // coho — a fish over the reef
		Distractors:     []Category{cats[1]},
		TargetEnterProb: 0.01,
		TargetLeaveProb: 0.05,
		NumDistractors:  1,
		Speed:           0.15,
		Noise:           0.015,
	}
}

// JunctionStream returns the busy-intersection preset ("jackson" analogue):
// several fast-moving objects and frequent targets, defeating result reuse.
func JunctionStream(size, frames int, seed int64) StreamOptions {
	cats := Categories()
	return StreamOptions{
		Size:            size,
		Frames:          frames,
		Seed:            seed,
		Target:          cats[9], // wallet — stands in for the tracked vehicle class
		Distractors:     []Category{cats[2], cats[5], cats[8]},
		TargetEnterProb: 0.10,
		TargetLeaveProb: 0.08,
		NumDistractors:  3,
		Speed:           2.0,
		Noise:           0.03,
	}
}

type sprite struct {
	cat    Category
	x, y   float32
	vx, vy float32
	scale  float32
	seed   int64
}

// GenerateStream renders a labeled frame sequence with temporal coherence:
// the scene's background is fixed, objects move smoothly, and the target
// enters/leaves according to a two-state Markov chain.
func GenerateStream(opts StreamOptions) ([]Frame, error) {
	if opts.Size < 8 || opts.Frames <= 0 {
		return nil, fmt.Errorf("synth: invalid stream geometry size=%d frames=%d", opts.Size, opts.Frames)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	size := float32(opts.Size)

	newSprite := func(cat Category) sprite {
		ang := float64(rng.Float64()) * 2 * math.Pi
		speed := opts.Speed * (0.5 + rng.Float32())
		return sprite{
			cat:   cat,
			x:     size * (0.2 + float32(0.6*rng.Float32())),
			y:     size * (0.2 + float32(0.6*rng.Float32())),
			vx:    speed * float32(math.Cos(ang)),
			vy:    speed * float32(math.Sin(ang)),
			scale: size * (0.18 + float32(0.1*rng.Float32())),
			seed:  rng.Int63(),
		}
	}

	distractors := make([]sprite, opts.NumDistractors)
	for i := range distractors {
		distractors[i] = newSprite(opts.Distractors[i%max(1, len(opts.Distractors))])
	}
	var target sprite
	targetPresent := false

	// Render the static background once; per-frame we copy and overlay.
	bg := newCanvas(opts.Size)
	bg.fillBackground(rng, opts.Noise)

	step := func(s *sprite) {
		s.x += s.vx
		s.y += s.vy
		if s.x < s.scale || s.x > size-s.scale {
			s.vx = -s.vx
			s.x += 2 * s.vx
		}
		if s.y < s.scale || s.y > size-s.scale {
			s.vy = -s.vy
			s.y += 2 * s.vy
		}
	}

	frames := make([]Frame, 0, opts.Frames)
	for f := 0; f < opts.Frames; f++ {
		if targetPresent {
			if rng.Float64() < opts.TargetLeaveProb {
				targetPresent = false
			}
		} else if rng.Float64() < opts.TargetEnterProb {
			target = newSprite(opts.Target)
			targetPresent = true
		}
		cv := &canvas{im: bg.im.Clone(), w: opts.Size, h: opts.Size}
		for i := range distractors {
			step(&distractors[i])
			// Seeded per-sprite rng keeps textured categories stable
			// between frames instead of shimmering.
			srng := rand.New(rand.NewSource(distractors[i].seed))
			distractors[i].cat.draw(srng, cv, distractors[i].x, distractors[i].y, distractors[i].scale)
		}
		if targetPresent {
			step(&target)
			srng := rand.New(rand.NewSource(target.seed))
			target.cat.draw(srng, cv, target.x, target.y, target.scale)
		}
		cv.addNoise(rng, opts.Noise)
		frames = append(frames, Frame{Image: cv.im.Clamp(), Label: targetPresent})
	}
	return frames, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

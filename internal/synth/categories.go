package synth

import (
	"fmt"
	"math/rand"
)

// Category is one synthetic object class, the analogue of an ImageNet
// category from Table II. Draw renders one instance at center (cx, cy) with
// the given scale (object radius in pixels) into the canvas.
type Category struct {
	Name string
	// Kind summarizes which representation dimension discriminates the
	// category: "hue" (hurt by gray/single-channel inputs), "texture" (hurt
	// by low resolution) or "shape" (robust to both).
	Kind string
	draw func(rng *rand.Rand, c *canvas, cx, cy, scale float32)
}

// Categories returns the ten fixed categories mirroring the paper's Table II
// predicates. Index order is stable.
func Categories() []Category {
	return []Category{
		{
			Name: "acorn", Kind: "hue",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				body := rgb{0.55, 0.35, 0.12}
				cap := rgb{0.32, 0.2, 0.07}
				c.ellipse(cx, cy, s*0.6, s*0.8, body, 0.95)
				c.ellipse(cx, cy-float32(s*0.55), s*0.65, s*0.3, cap, 0.95)
			},
		},
		{
			Name: "amphibian", Kind: "hue",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				body := rgb{0.2, 0.68, 0.28}
				spot := rgb{0.1, 0.4, 0.15}
				c.ellipse(cx, cy, s, s*0.65, body, 0.95)
				for i := 0; i < 4; i++ {
					ox := float32((rng.Float32() - 0.5) * s * 1.2)
					oy := float32((rng.Float32() - 0.5) * s * 0.7)
					c.ellipse(cx+ox, cy+oy, s*0.14, s*0.14, spot, 0.9)
				}
			},
		},
		{
			Name: "cloak", Kind: "shape",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				col := rgb{0.3, 0.18, 0.42}
				c.triangle(cx, cy-s, cx-float32(s*0.9), cy+s, cx+float32(s*0.9), cy+s, col, 0.95)
				c.ellipse(cx, cy-s, s*0.25, s*0.25, rgb{0.2, 0.1, 0.3}, 0.95)
			},
		},
		{
			Name: "coho", Kind: "hue",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				body := rgb{0.85, 0.45, 0.5}
				tail := rgb{0.7, 0.3, 0.38}
				c.ellipse(cx, cy, s, s*0.4, body, 0.95)
				c.triangle(cx+float32(s*0.9), cy, cx+float32(s*1.5), cy-float32(s*0.45), cx+float32(s*1.5), cy+float32(s*0.45), tail, 0.95)
			},
		},
		{
			Name: "fence", Kind: "texture",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				light := rgb{0.72, 0.62, 0.42}
				dark := rgb{0.42, 0.34, 0.2}
				c.stripes(cx, cy, s*1.3, s*0.9, light, dark, 2.0, true, 0.95)
			},
		},
		{
			Name: "ferret", Kind: "shape",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				body := rgb{0.88, 0.84, 0.72}
				mask := rgb{0.35, 0.27, 0.2}
				c.ellipse(cx, cy, s*1.4, s*0.4, body, 0.95)
				c.ellipse(cx-float32(s*1.1), cy, s*0.35, s*0.3, mask, 0.95)
				c.ellipse(cx+float32(s*1.2), cy+float32(s*0.1), s*0.45, s*0.18, mask, 0.9)
			},
		},
		{
			Name: "komondor", Kind: "texture",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				coat := rgb{0.92, 0.91, 0.86}
				c.shag(rng, cx, cy, s*1.1, s*0.8, coat, 0.45, 0.95)
			},
		},
		{
			Name: "pinwheel", Kind: "texture",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				a := rgb{0.9, 0.2, 0.2}
				b := rgb{0.2, 0.4, 0.9}
				c.pinwheel(cx, cy, s, a, b, 8, 0.95)
				c.ellipse(cx, cy, s*0.12, s*0.12, rgb{0.95, 0.9, 0.3}, 0.95)
			},
		},
		{
			Name: "scorpion", Kind: "shape",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				body := rgb{0.28, 0.22, 0.12}
				c.ellipse(cx, cy, s*0.7, s*0.4, body, 0.95)
				// Curved tail: a short arc of shrinking circles ending high.
				for i := 0; i < 5; i++ {
					t := float32(i) / 4
					tx := cx + float32(s*(0.7+float32(0.5*t)))
					ty := cy - float32(s*1.1*t*t)
					r := float32(s*0.18*(1-float32(0.5*t))) + float32(s*0.05)
					c.ellipse(tx, ty, r, r, body, 0.95)
				}
			},
		},
		{
			Name: "wallet", Kind: "hue",
			draw: func(rng *rand.Rand, c *canvas, cx, cy, s float32) {
				leather := rgb{0.5, 0.32, 0.16}
				seam := rgb{0.3, 0.18, 0.08}
				c.rect(cx-s, cy-float32(s*0.65), cx+s, cy+float32(s*0.65), leather, 0.95)
				c.rect(cx-s, cy-float32(s*0.1), cx+s, cy+float32(s*0.1), seam, 0.9)
			},
		},
	}
}

// CategoryByName returns the category with the given name.
func CategoryByName(name string) (Category, error) {
	for _, c := range Categories() {
		if c.Name == name {
			return c, nil
		}
	}
	return Category{}, fmt.Errorf("synth: unknown category %q", name)
}

// CategoryNames returns the ten category names in index order.
func CategoryNames() []string {
	cats := Categories()
	names := make([]string, len(cats))
	for i, c := range cats {
		names[i] = c.Name
	}
	return names
}

// Package synth generates the labeled image corpora and video streams that
// stand in for the paper's ImageNet categories and NoScope videos. Every
// image is produced deterministically from a seed.
//
// The ten categories are designed so that the physical representation of the
// input matters, mirroring what makes the paper's design space interesting:
// some categories are told apart by hue (hurt by grayscale or single-channel
// inputs), others by fine texture frequency (hurt by low-resolution inputs),
// and others by coarse shape (robust to both, so cheap models suffice).
//
// Every floating-point product is rounded before it is added (an explicit
// conversion, which no GOARCH may fuse), so arm64 renders the corpus a zoo
// trains on bit for bit as amd64 does.
package synth

import (
	"math"
	"math/rand"

	"tahoma/internal/img"
)

// rgb is a paint color.
type rgb struct{ r, g, b float32 }

// canvas wraps an RGB image with alpha-blended drawing primitives. All
// coordinates are in pixels; shapes clip to the canvas.
type canvas struct {
	im *img.Image
	w  int
	h  int
}

func newCanvas(size int) *canvas {
	return &canvas{im: img.New(size, size, img.RGB), w: size, h: size}
}

func (c *canvas) blend(x, y int, col rgb, alpha float32) {
	if x < 0 || y < 0 || x >= c.w || y >= c.h || alpha <= 0 {
		return
	}
	i := y*c.w + x
	n := c.w * c.h
	p := c.im.Pix
	p[i] += float32(alpha * (col.r - p[i]))
	p[n+i] += float32(alpha * (col.g - p[n+i]))
	p[2*n+i] += float32(alpha * (col.b - p[2*n+i]))
}

// fillBackground paints a smooth two-corner gradient plus uniform noise.
func (c *canvas) fillBackground(rng *rand.Rand, noise float32) {
	c0 := rgb{0.25 + float32(0.3*rng.Float32()), 0.25 + float32(0.3*rng.Float32()), 0.25 + float32(0.3*rng.Float32())}
	c1 := rgb{0.25 + float32(0.3*rng.Float32()), 0.25 + float32(0.3*rng.Float32()), 0.25 + float32(0.3*rng.Float32())}
	n := c.w * c.h
	r, g, b := c.im.Pix[:n], c.im.Pix[n:2*n], c.im.Pix[2*n:]
	for y := 0; y < c.h; y++ {
		for x := 0; x < c.w; x++ {
			t := (float32(x) + float32(y)) / float32(c.w+c.h)
			i := y*c.w + x
			r[i] = c0.r + float32(t*(c1.r-c0.r)) + float32(noise*(rng.Float32()-0.5))
			g[i] = c0.g + float32(t*(c1.g-c0.g)) + float32(noise*(rng.Float32()-0.5))
			b[i] = c0.b + float32(t*(c1.b-c0.b)) + float32(noise*(rng.Float32()-0.5))
		}
	}
}

// addNoise perturbs every sample by ±noise/2, simulating sensor noise.
func (c *canvas) addNoise(rng *rand.Rand, noise float32) {
	for i := range c.im.Pix {
		c.im.Pix[i] += float32(noise * (rng.Float32() - 0.5))
	}
}

// ellipse fills an axis-aligned ellipse with soft edges.
func (c *canvas) ellipse(cx, cy, rx, ry float32, col rgb, alpha float32) {
	x0, x1 := int(cx-rx-1), int(cx+rx+1)
	y0, y1 := int(cy-ry-1), int(cy+ry+1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx := (float32(x) + 0.5 - cx) / rx
			dy := (float32(y) + 0.5 - cy) / ry
			d := float32(dx*dx) + float32(dy*dy)
			if d <= 1 {
				a := alpha
				if d > 0.8 { // soften the rim
					a *= (1 - d) / 0.2
				}
				c.blend(x, y, col, a)
			}
		}
	}
}

// rect fills an axis-aligned rectangle.
func (c *canvas) rect(x0, y0, x1, y1 float32, col rgb, alpha float32) {
	for y := int(y0); y < int(y1); y++ {
		for x := int(x0); x < int(x1); x++ {
			c.blend(x, y, col, alpha)
		}
	}
}

// triangle fills the triangle (x0,y0)-(x1,y1)-(x2,y2) using sign tests.
func (c *canvas) triangle(x0, y0, x1, y1, x2, y2 float32, col rgb, alpha float32) {
	minX := int(min3(x0, x1, x2))
	maxX := int(max3(x0, x1, x2)) + 1
	minY := int(min3(y0, y1, y2))
	maxY := int(max3(y0, y1, y2)) + 1
	sign := func(ax, ay, bx, by, px, py float32) float32 {
		return float32((px-ax)*(by-ay)) - float32((py-ay)*(bx-ax))
	}
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float32(x)+0.5, float32(y)+0.5
			d0 := sign(x0, y0, x1, y1, px, py)
			d1 := sign(x1, y1, x2, y2, px, py)
			d2 := sign(x2, y2, x0, y0, px, py)
			neg := d0 < 0 || d1 < 0 || d2 < 0
			pos := d0 > 0 || d1 > 0 || d2 > 0
			if !(neg && pos) {
				c.blend(x, y, col, alpha)
			}
		}
	}
}

// stripes fills an ellipse-bounded region with alternating stripes of two
// colors at the given pixel frequency; vertical when vert is true.
func (c *canvas) stripes(cx, cy, rx, ry float32, a, b rgb, period float32, vert bool, alpha float32) {
	x0, x1 := int(cx-rx-1), int(cx+rx+1)
	y0, y1 := int(cy-ry-1), int(cy+ry+1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx := (float32(x) + 0.5 - cx) / rx
			dy := (float32(y) + 0.5 - cy) / ry
			if float32(dx*dx)+float32(dy*dy) > 1 {
				continue
			}
			var phase float32
			if vert {
				phase = float32(x) / period
			} else {
				phase = float32(y) / period
			}
			if int(phase)%2 == 0 {
				c.blend(x, y, a, alpha)
			} else {
				c.blend(x, y, b, alpha)
			}
		}
	}
}

// pinwheel fills radial alternating sectors around (cx, cy).
func (c *canvas) pinwheel(cx, cy, radius float32, a, b rgb, sectors int, alpha float32) {
	x0, x1 := int(cx-radius-1), int(cx+radius+1)
	y0, y1 := int(cy-radius-1), int(cy+radius+1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx := float32(x) + 0.5 - cx
			dy := float32(y) + 0.5 - cy
			if float32(dx*dx)+float32(dy*dy) > radius*radius {
				continue
			}
			ang := math.Atan2(float64(dy), float64(dx)) + math.Pi
			sector := int(ang / (2 * math.Pi) * float64(sectors))
			if sector%2 == 0 {
				c.blend(x, y, a, alpha)
			} else {
				c.blend(x, y, b, alpha)
			}
		}
	}
}

// shag fills an ellipse with per-pixel brightness jitter around a base color,
// producing the high-frequency texture low resolutions destroy.
func (c *canvas) shag(rng *rand.Rand, cx, cy, rx, ry float32, col rgb, jitter, alpha float32) {
	x0, x1 := int(cx-rx-1), int(cx+rx+1)
	y0, y1 := int(cy-ry-1), int(cy+ry+1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx := (float32(x) + 0.5 - cx) / rx
			dy := (float32(y) + 0.5 - cy) / ry
			if float32(dx*dx)+float32(dy*dy) > 1 {
				continue
			}
			j := float32(jitter*(rng.Float32()-0.5)) * 2
			c.blend(x, y, rgb{col.r + j, col.g + j, col.b + j}, alpha)
		}
	}
}

func min3(a, b, c float32) float32 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func max3(a, b, c float32) float32 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

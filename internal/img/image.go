// Package img provides the image representation TAHOMA's models consume:
// planar CHW float32 images with values in [0,1], horizontal flipping (the
// paper's data augmentation), and the TIMG codec: one byte per sample, the
// record every stored and every served representation is. The paper's
// input-transformation functions live elsewhere: xform derives a
// representation from a record in integer arithmetic, and train holds the
// float32 transform it fits and calibrates on.
package img

import "fmt"

// ColorMode identifies the channel layout of an image.
type ColorMode uint8

// Channel layouts. RGB is 3 planes; the single-channel modes record which
// projection produced the plane so that data-handling costs can be accounted
// per representation.
const (
	RGB ColorMode = iota
	Red
	Green
	Blue
	Gray
)

// String returns the short name used in transform IDs ("rgb", "r", ...).
func (m ColorMode) String() string {
	switch m {
	case RGB:
		return "rgb"
	case Red:
		return "r"
	case Green:
		return "g"
	case Blue:
		return "b"
	case Gray:
		return "gray"
	default:
		return fmt.Sprintf("ColorMode(%d)", uint8(m))
	}
}

// Channels returns the number of planes for the mode.
func (m ColorMode) Channels() int {
	if m == RGB {
		return 3
	}
	return 1
}

// Image is a planar (channel-major) float32 image with values nominally in
// [0,1]. Pix holds C×H×W values: plane c starts at offset c*H*W.
type Image struct {
	W, H int
	Mode ColorMode
	Pix  []float32
}

// New returns a zero-filled image of the given size and mode.
func New(w, h int, mode ColorMode) *Image {
	return &Image{W: w, H: h, Mode: mode, Pix: make([]float32, mode.Channels()*w*h)}
}

// Channels returns the number of planes.
func (im *Image) Channels() int { return im.Mode.Channels() }

// At returns the value of channel c at (x, y). No bounds checking beyond the
// slice's own.
func (im *Image) At(c, x, y int) float32 {
	return im.Pix[c*im.W*im.H+y*im.W+x]
}

// Set stores v into channel c at (x, y).
func (im *Image) Set(c, x, y int, v float32) {
	im.Pix[c*im.W*im.H+y*im.W+x] = v
}

// Plane returns the sub-slice for channel c.
func (im *Image) Plane(c int) []float32 {
	n := im.W * im.H
	return im.Pix[c*n : (c+1)*n]
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Mode: im.Mode, Pix: make([]float32, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// Bytes returns the in-memory footprint of the pixel data in bytes, used by
// analytic cost models to account for loading costs.
func (im *Image) Bytes() int { return len(im.Pix) * 4 }

// StoredBytes returns the size of the image when stored in the TIMG uint8
// format (header + one byte per sample), used to model disk load costs.
func (im *Image) StoredBytes() int { return timgHeaderSize + len(im.Pix) }

// Clamp clips all samples into [0,1] in place and returns the image.
func (im *Image) Clamp() *Image {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
	return im
}

// FlipH returns the image mirrored left-to-right (the paper's data
// augmentation).
func FlipH(src *Image) *Image {
	out := New(src.W, src.H, src.Mode)
	for c := 0; c < src.Channels(); c++ {
		sp, dp := src.Plane(c), out.Plane(c)
		for y := 0; y < src.H; y++ {
			row := y * src.W
			for x := 0; x < src.W; x++ {
				dp[row+x] = sp[row+src.W-1-x]
			}
		}
	}
	return out
}
